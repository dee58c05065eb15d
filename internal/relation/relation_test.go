package relation

import (
	"errors"
	"fmt"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

func newDB(t testing.TB) *DB {
	t.Helper()
	return NewDB(buffer.MustNew(pagefile.MustNewMem(4096), 1024))
}

func moviesSchema() Schema {
	return Schema{
		Name: "Movies",
		Columns: []Column{
			{Name: "mID", Kind: KindInt64},
			{Name: "name", Kind: KindString},
			{Name: "desc", Kind: KindString},
			{Name: "year", Kind: KindInt64},
		},
	}
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name   string
		schema Schema
		ok     bool
	}{
		{"valid", moviesSchema(), true},
		{"no name", Schema{Columns: []Column{{Name: "id", Kind: KindInt64}}}, false},
		{"no columns", Schema{Name: "T"}, false},
		{"non-int pk", Schema{Name: "T", Columns: []Column{{Name: "id", Kind: KindString}}}, false},
		{"duplicate column", Schema{Name: "T", Columns: []Column{{Name: "id", Kind: KindInt64}, {Name: "id", Kind: KindString}}}, false},
		{"unnamed column", Schema{Name: "T", Columns: []Column{{Name: "id", Kind: KindInt64}, {Name: "", Kind: KindString}}}, false},
		{"bad kind", Schema{Name: "T", Columns: []Column{{Name: "id", Kind: KindInt64}, {Name: "x", Kind: Kind(99)}}}, false},
	}
	for _, c := range cases {
		err := c.schema.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	db := newDB(t)
	movies, err := db.CreateTable(moviesSchema())
	if err != nil {
		t.Fatal(err)
	}
	row := Row{Int(1), Str("American Thrift"), Str("a classic about the golden gate"), Int(1962)}
	if err := movies.Insert(row); err != nil {
		t.Fatal(err)
	}
	if movies.Len() != 1 {
		t.Errorf("Len = %d, want 1", movies.Len())
	}
	got, err := movies.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].S != "American Thrift" || got[3].I != 1962 {
		t.Errorf("Get returned %v", got)
	}

	if err := movies.Update(1, map[string]Value{"year": Int(1963)}); err != nil {
		t.Fatal(err)
	}
	got, _ = movies.Get(1)
	if got[3].I != 1963 {
		t.Errorf("year after update = %d, want 1963", got[3].I)
	}

	if err := movies.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := movies.Get(1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
	if movies.Len() != 0 {
		t.Errorf("Len after delete = %d, want 0", movies.Len())
	}
}

func TestInsertValidation(t *testing.T) {
	db := newDB(t)
	movies, _ := db.CreateTable(moviesSchema())
	if err := movies.Insert(Row{Int(1), Str("x")}); err == nil {
		t.Error("short row accepted")
	}
	if err := movies.Insert(Row{Str("1"), Str("x"), Str("y"), Int(2000)}); err == nil {
		t.Error("wrong-typed primary key accepted")
	}
	good := Row{Int(7), Str("a"), Str("b"), Int(2000)}
	if err := movies.Insert(good); err != nil {
		t.Fatal(err)
	}
	if err := movies.Insert(good); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate insert error = %v, want ErrDuplicateKey", err)
	}
}

func TestUpdateValidation(t *testing.T) {
	db := newDB(t)
	movies, _ := db.CreateTable(moviesSchema())
	if err := movies.Insert(Row{Int(1), Str("a"), Str("b"), Int(2000)}); err != nil {
		t.Fatal(err)
	}
	if err := movies.Update(1, map[string]Value{"mID": Int(2)}); err == nil {
		t.Error("primary key update accepted")
	}
	if err := movies.Update(1, map[string]Value{"year": Str("nope")}); err == nil {
		t.Error("wrong-typed update accepted")
	}
	if err := movies.Update(1, map[string]Value{"missing": Int(1)}); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("unknown column update error = %v, want ErrNoSuchColumn", err)
	}
	if err := movies.Update(99, map[string]Value{"year": Int(1)}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update of missing row error = %v, want ErrNotFound", err)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	db := newDB(t)
	movies, _ := db.CreateTable(moviesSchema())
	for i := 50; i >= 1; i-- {
		if err := movies.Insert(Row{Int(int64(i)), Str("m"), Str("d"), Int(2000)}); err != nil {
			t.Fatal(err)
		}
	}
	var pks []int64
	if err := movies.Scan(func(r Row) bool {
		pks = append(pks, r[0].I)
		return len(pks) < 10
	}); err != nil {
		t.Fatal(err)
	}
	if len(pks) != 10 {
		t.Fatalf("early-stopped scan visited %d rows", len(pks))
	}
	for i, pk := range pks {
		if pk != int64(i+1) {
			t.Errorf("scan order wrong: position %d has pk %d", i, pk)
		}
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	db := newDB(t)
	reviews, err := db.CreateTable(Schema{
		Name: "Reviews",
		Columns: []Column{
			{Name: "rID", Kind: KindInt64},
			{Name: "mID", Kind: KindInt64},
			{Name: "rating", Kind: KindFloat64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reviews.CreateIndex("mID"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		row := Row{Int(int64(i)), Int(int64(i % 10)), Float(float64(i%5) + 1)}
		if err := reviews.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	var count int
	var sum float64
	if err := reviews.LookupByColumn("mID", Int(3), func(r Row) bool {
		count++
		sum += r[2].F
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("lookup returned %d rows, want 10", count)
	}
	// mID 3 corresponds to rIDs 3,13,...,93 whose ratings are (i%5)+1.
	want := 0.0
	for i := 3; i < 100; i += 10 {
		want += float64(i%5) + 1
	}
	if sum != want {
		t.Errorf("sum of ratings = %g, want %g", sum, want)
	}
}

func TestSecondaryIndexMaintainedOnMutations(t *testing.T) {
	db := newDB(t)
	stats, _ := db.CreateTable(Schema{
		Name: "Statistics",
		Columns: []Column{
			{Name: "sID", Kind: KindInt64},
			{Name: "mID", Kind: KindInt64},
			{Name: "nVisit", Kind: KindInt64},
		},
	})
	if err := stats.CreateIndex("mID"); err != nil {
		t.Fatal(err)
	}
	if err := stats.Insert(Row{Int(1), Int(10), Int(100)}); err != nil {
		t.Fatal(err)
	}
	if err := stats.Insert(Row{Int(2), Int(20), Int(5)}); err != nil {
		t.Fatal(err)
	}
	// Move row 1 from mID 10 to mID 20.
	if err := stats.Update(1, map[string]Value{"mID": Int(20)}); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := stats.LookupByColumn("mID", Int(10), func(Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("old index entry still present: %d rows for mID 10", count)
	}
	count = 0
	if err := stats.LookupByColumn("mID", Int(20), func(Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("rows for mID 20 = %d, want 2", count)
	}
	// Delete removes index entries too.
	if err := stats.Delete(2); err != nil {
		t.Fatal(err)
	}
	count = 0
	if err := stats.LookupByColumn("mID", Int(20), func(Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("rows for mID 20 after delete = %d, want 1", count)
	}
}

// TestUpdateOfUnindexedColumnSkipsSecondary updates a column no secondary
// index covers: the index's tree keeps its root and Len, no page of it is
// written, and lookups through it still answer.
func TestUpdateOfUnindexedColumnSkipsSecondary(t *testing.T) {
	db := newDB(t)
	reviews, _ := db.CreateTable(Schema{
		Name: "Reviews",
		Columns: []Column{
			{Name: "rID", Kind: KindInt64},
			{Name: "mID", Kind: KindInt64},
			{Name: "rating", Kind: KindFloat64},
		},
	})
	if err := reviews.CreateIndex("mID"); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := reviews.Insert(Row{Int(i), Int(i % 4), Float(3)}); err != nil {
			t.Fatal(err)
		}
	}
	sec := reviews.secondary["mID"]
	root, size := sec.RootPage(), sec.Len()
	pool := db.Pool()
	if err := pool.FlushOrdered(); err != nil {
		t.Fatal(err)
	}
	before := pool.Stats().Flushes
	if err := reviews.Update(6, map[string]Value{"rating": Float(4.5)}); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushOrdered(); err != nil {
		t.Fatal(err)
	}
	if n := pool.Stats().Flushes - before; n != 1 {
		t.Errorf("rating update wrote %d pages, want 1 (the row's leaf)", n)
	}
	if sec.RootPage() != root || sec.Len() != size {
		t.Errorf("secondary tree moved: root %d → %d, Len %d → %d", root, sec.RootPage(), size, sec.Len())
	}
	var got []float64
	if err := reviews.LookupByColumn("mID", Int(2), func(r Row) bool {
		got = append(got, r[2].F)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[1] != 4.5 {
		t.Errorf("ratings for mID 2 = %v, want 5 with the second 4.5", got)
	}
}

func TestLookupWithoutIndexFails(t *testing.T) {
	db := newDB(t)
	movies, _ := db.CreateTable(moviesSchema())
	if err := movies.LookupByColumn("year", Int(2000), func(Row) bool { return true }); err == nil {
		t.Error("LookupByColumn without index succeeded, want error")
	}
}

func TestChangeNotifications(t *testing.T) {
	db := newDB(t)
	movies, _ := db.CreateTable(moviesSchema())
	var changes []Change
	movies.OnChange(func(c Change) { changes = append(changes, c) })

	if err := movies.Insert(Row{Int(1), Str("a"), Str("b"), Int(2000)}); err != nil {
		t.Fatal(err)
	}
	if err := movies.Update(1, map[string]Value{"year": Int(2001)}); err != nil {
		t.Fatal(err)
	}
	if err := movies.Delete(1); err != nil {
		t.Fatal(err)
	}
	if len(changes) != 3 {
		t.Fatalf("received %d change notifications, want 3", len(changes))
	}
	if changes[0].Kind != ChangeInsert || changes[0].New == nil || changes[0].Old != nil {
		t.Errorf("insert change = %+v", changes[0])
	}
	if changes[1].Kind != ChangeUpdate || changes[1].Old[3].I != 2000 || changes[1].New[3].I != 2001 {
		t.Errorf("update change = %+v", changes[1])
	}
	if changes[2].Kind != ChangeDelete || changes[2].New != nil {
		t.Errorf("delete change = %+v", changes[2])
	}
}

func TestNegativeAndLargePrimaryKeys(t *testing.T) {
	db := newDB(t)
	tbl, _ := db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "id", Kind: KindInt64}, {Name: "v", Kind: KindFloat64}}})
	keys := []int64{-5, -1, 0, 1, 1 << 40}
	for _, k := range keys {
		if err := tbl.Insert(Row{Int(k), Float(float64(k))}); err != nil {
			t.Fatalf("Insert pk %d: %v", k, err)
		}
	}
	for _, k := range keys {
		row, err := tbl.Get(k)
		if err != nil || row[1].F != float64(k) {
			t.Errorf("Get pk %d = %v, %v", k, row, err)
		}
	}
}

func TestCatalog(t *testing.T) {
	db := newDB(t)
	if _, err := db.CreateTable(moviesSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(moviesSchema()); err == nil {
		t.Error("duplicate table creation succeeded")
	}
	if _, err := db.Table("Movies"); err != nil {
		t.Errorf("Table lookup failed: %v", err)
	}
	if _, err := db.Table("Nope"); err == nil {
		t.Error("lookup of missing table succeeded")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "Movies" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestValueConversionsAndString(t *testing.T) {
	if Int(7).AsFloat() != 7 || Float(2.5).AsInt() != 2 || Str("x").AsFloat() != 0 || Str("x").AsInt() != 0 {
		t.Error("value conversions wrong")
	}
	if Int(7).String() != "7" || Float(2.5).String() != "2.5" || Str("x").String() != "x" {
		t.Error("value String() wrong")
	}
	if KindInt64.String() != "BIGINT" || KindFloat64.String() != "DOUBLE" || KindString.String() != "VARCHAR" {
		t.Error("kind String() wrong")
	}
	if got := Kind(42).String(); got != "Kind(42)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestManyRowsSurviveEviction(t *testing.T) {
	// Use a tiny pool so rows round-trip through the page file.
	db := NewDB(buffer.MustNew(pagefile.MustNewMem(1024), 16))
	tbl, err := db.CreateTable(Schema{Name: "T", Columns: []Column{
		{Name: "id", Kind: KindInt64},
		{Name: "payload", Kind: KindString},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Row{Int(int64(i)), Str(fmt.Sprintf("payload-%d", i))}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 97 {
		row, err := tbl.Get(int64(i))
		if err != nil || row[1].S != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("Get %d = %v, %v", i, row, err)
		}
	}
}
