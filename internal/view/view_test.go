package view

import (
	"math"
	"reflect"
	"testing"

	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// buildExampleDB creates the paper's Figure 1 schema with a couple of movies.
func buildExampleDB(t testing.TB) *relation.DB {
	t.Helper()
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(4096), 2048))
	movies, err := db.CreateTable(relation.Schema{
		Name: "Movies",
		Columns: []relation.Column{
			{Name: "mID", Kind: relation.KindInt64},
			{Name: "name", Kind: relation.KindString},
			{Name: "desc", Kind: relation.KindString},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reviews, err := db.CreateTable(relation.Schema{
		Name: "Reviews",
		Columns: []relation.Column{
			{Name: "rID", Kind: relation.KindInt64},
			{Name: "mID", Kind: relation.KindInt64},
			{Name: "rating", Kind: relation.KindFloat64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := db.CreateTable(relation.Schema{
		Name: "Statistics",
		Columns: []relation.Column{
			{Name: "sID", Kind: relation.KindInt64},
			{Name: "mID", Kind: relation.KindInt64},
			{Name: "nVisit", Kind: relation.KindInt64},
			{Name: "nDownload", Kind: relation.KindInt64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	mustInsert(t, movies, relation.Row{relation.Int(1), relation.Str("American Thrift"), relation.Str("golden gate classic")})
	mustInsert(t, movies, relation.Row{relation.Int(2), relation.Str("Amateur Film"), relation.Str("golden gate amateur")})

	mustInsert(t, reviews, relation.Row{relation.Int(1), relation.Int(1), relation.Float(4)})
	mustInsert(t, reviews, relation.Row{relation.Int(2), relation.Int(1), relation.Float(5)})
	mustInsert(t, reviews, relation.Row{relation.Int(3), relation.Int(2), relation.Float(2)})

	mustInsert(t, stats, relation.Row{relation.Int(1), relation.Int(1), relation.Int(20000), relation.Int(1000)})
	mustInsert(t, stats, relation.Row{relation.Int(2), relation.Int(2), relation.Int(300), relation.Int(20)})
	return db
}

func mustInsert(t testing.TB, tbl *relation.Table, row relation.Row) {
	t.Helper()
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
}

func exampleSpec() Spec {
	return Spec{
		Components: []Component{
			AvgColumn("Reviews", "rating", "mID"),
			LookupColumn("Statistics", "nVisit", "mID"),
			LookupColumn("Statistics", "nDownload", "mID"),
		},
		Agg: WeightedSum(100, 0.5, 1),
	}
}

func TestSpecValidation(t *testing.T) {
	if err := (&Spec{}).Validate(); err == nil {
		t.Error("empty spec validated")
	}
	bad := Spec{Components: []Component{{Name: "broken"}}}
	if err := bad.Validate(); err == nil {
		t.Error("spec with nil Eval validated")
	}
	if err := (&Spec{Components: []Component{Constant(1)}}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestAggregators(t *testing.T) {
	ws := WeightedSum(2, 0.5)
	if got := ws([]float64{10, 4}); got != 22 {
		t.Errorf("WeightedSum = %g, want 22", got)
	}
	// Extra components beyond the weights are added unweighted.
	if got := ws([]float64{10, 4, 3}); got != 25 {
		t.Errorf("WeightedSum with extra component = %g, want 25", got)
	}
	if got := Sum()([]float64{1, 2, 3}); got != 6 {
		t.Errorf("Sum = %g, want 6", got)
	}
}

func TestBuildComputesPaperExampleScores(t *testing.T) {
	db := buildExampleDB(t)
	v, err := NewScoreView(db, "Movies", exampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Movie 1: avg rating 4.5 -> 450, visits 20000 -> 10000, downloads 1000.
	s1, err := v.Compute(1)
	if err != nil {
		t.Fatalf("Compute(1): %v", err)
	}
	if want := 4.5*100 + 20000.0/2 + 1000; math.Abs(s1-want) > 1e-9 {
		t.Errorf("Compute(1) = %g, want %g", s1, want)
	}
	// Movie 2: avg 2 -> 200, visits 300 -> 150, downloads 20.
	s2, _ := v.Compute(2)
	if want := 2.0*100 + 150 + 20; math.Abs(s2-want) > 1e-9 {
		t.Errorf("Compute(2) = %g, want %g", s2, want)
	}
	if s1 <= s2 {
		t.Error("American Thrift must outrank Amateur Film in the paper's example")
	}
}

// attachedView returns a view over the example schema that records every
// change it delivers.
func attachedView(t *testing.T, db *relation.DB) *[]ScoreChange {
	t.Helper()
	v, err := NewScoreView(db, "Movies", exampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Attach(); err != nil {
		t.Fatal(err)
	}
	changes := &[]ScoreChange{}
	v.OnScoreChange(func(c ScoreChange) { *changes = append(*changes, c) })
	return changes
}

func TestIncrementalMaintenanceOnDependencyTables(t *testing.T) {
	db := buildExampleDB(t)
	changes := attachedView(t, db)

	// A visits update to movie 2 must refresh only movie 2's score.
	stats, _ := db.Table("Statistics")
	if err := stats.Update(2, map[string]relation.Value{"nVisit": relation.Int(150300)}); err != nil {
		t.Fatal(err)
	}
	want := ScoreChange{Doc: 2, New: 2.0*100 + 150300.0/2 + 20}
	if len(*changes) != 1 || !reflect.DeepEqual((*changes)[0], want) {
		t.Fatalf("changes after visits update = %+v, want %+v", *changes, want)
	}

	// A new review for movie 1 must refresh movie 1.
	reviews, _ := db.Table("Reviews")
	*changes = nil
	if err := reviews.Insert(relation.Row{relation.Int(4), relation.Int(1), relation.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if len(*changes) != 1 || (*changes)[0].Doc != 1 {
		t.Fatalf("changes after review insert = %+v", *changes)
	}
	wantAvg := (4.0 + 5.0 + 1.0) / 3.0
	if want := wantAvg*100 + 10000 + 1000; math.Abs((*changes)[0].New-want) > 1e-9 {
		t.Errorf("score of movie 1 after new review = %g, want %g", (*changes)[0].New, want)
	}

	// A review that moves from movie 1 to movie 2 refreshes both.
	*changes = nil
	if err := reviews.Update(4, map[string]relation.Value{"mID": relation.Int(2)}); err != nil {
		t.Fatal(err)
	}
	docs := map[int64]bool{}
	for _, c := range *changes {
		docs[c.Doc] = true
	}
	if len(*changes) != 2 || !docs[1] || !docs[2] {
		t.Errorf("changes after moving a review = %+v, want one each for docs 1 and 2", *changes)
	}
}

func TestBaseTableInsertAndDelete(t *testing.T) {
	db := buildExampleDB(t)
	changes := attachedView(t, db)

	movies, _ := db.Table("Movies")
	if err := movies.Insert(relation.Row{relation.Int(3), relation.Str("New Release"), relation.Str("golden news")}); err != nil {
		t.Fatal(err)
	}
	if len(*changes) != 1 || !reflect.DeepEqual((*changes)[0], ScoreChange{Doc: 3, Inserted: true}) {
		t.Fatalf("insert change = %+v", *changes)
	}

	// An edit of the row is a re-evaluation, not an insert.
	*changes = nil
	if err := movies.Update(3, map[string]relation.Value{"name": relation.Str("Old Release")}); err != nil {
		t.Fatal(err)
	}
	if len(*changes) != 1 || !reflect.DeepEqual((*changes)[0], ScoreChange{Doc: 3}) {
		t.Fatalf("update change = %+v", *changes)
	}

	*changes = nil
	if err := movies.Delete(3); err != nil {
		t.Fatal(err)
	}
	deleted := relation.Row{relation.Int(3), relation.Str("Old Release"), relation.Str("golden news")}
	if len(*changes) != 1 || !reflect.DeepEqual((*changes)[0], ScoreChange{Doc: 3, Deleted: true, Old: deleted}) {
		t.Fatalf("delete change = %+v", *changes)
	}
}

func TestUpdatesToUnrelatedDocumentsDoNotNotify(t *testing.T) {
	db := buildExampleDB(t)
	changes := attachedView(t, db)

	// A statistics row for a movie that does not exist must not produce a
	// notification.
	stats, _ := db.Table("Statistics")
	if err := stats.Insert(relation.Row{relation.Int(99), relation.Int(99), relation.Int(5), relation.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if len(*changes) != 0 {
		t.Errorf("received %+v for an unrelated row", *changes)
	}
	// An update that leaves the score unchanged is forwarded with the same
	// score: the view keeps no copy to compare against, the index's Score
	// table drops it (core: TestTextEditIsNotAScoreUpdate).
	reviews, _ := db.Table("Reviews")
	row, _ := reviews.Get(3)
	if err := reviews.Update(3, map[string]relation.Value{"rating": relation.Float(row[2].F)}); err != nil {
		t.Fatal(err)
	}
	if want := (ScoreChange{Doc: 2, New: 2.0*100 + 150 + 20}); len(*changes) != 1 || !reflect.DeepEqual((*changes)[0], want) {
		t.Errorf("changes after a no-op update = %+v, want %+v", *changes, want)
	}
}

func TestComponentConstructors(t *testing.T) {
	db := buildExampleDB(t)
	cases := []struct {
		name string
		c    Component
		pk   int64
		want float64
	}{
		{"avg", AvgColumn("Reviews", "rating", "mID"), 1, 4.5},
		{"sum", SumColumn("Reviews", "rating", "mID"), 1, 9},
		{"count", CountRows("Reviews", "mID"), 1, 2},
		{"lookup", LookupColumn("Statistics", "nVisit", "mID"), 2, 300},
		{"lookup missing", LookupColumn("Statistics", "nVisit", "mID"), 42, 0},
		{"own column", OwnColumn("Movies", "mID"), 2, 2},
		{"constant", Constant(7.5), 1, 7.5},
		{"avg no rows", AvgColumn("Reviews", "rating", "mID"), 42, 0},
	}
	for _, c := range cases {
		got, err := c.c.Eval(db, c.pk)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Eval = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestNewScoreViewValidation(t *testing.T) {
	db := buildExampleDB(t)
	if _, err := NewScoreView(db, "Missing", exampleSpec()); err == nil {
		t.Error("view over missing table created")
	}
	if _, err := NewScoreView(db, "Movies", Spec{}); err == nil {
		t.Error("view with empty spec created")
	}
}
