package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"svrdb/internal/relation"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

// These tests cover the Score view as the engine wires it: the view stores
// nothing, the method's Score table is its one materialized copy.

// archiveModel is an independent image of what the archive spec reads: per
// movie, its review ratings, its Statistics counters and whether its Movies
// row exists.
type archiveModel struct {
	live      map[int64]bool
	ratings   map[int64]map[int64]float64 // mID -> rID -> rating
	visits    map[int64]int64
	downloads map[int64]int64
	reviewOf  map[int64]int64 // rID -> mID
}

// score is Agg(s1, s2, s3) = s1·100 + s2/2 + s3 as view.WeightedSum adds it
// up, clamped as the engine indexes it.
func (m *archiveModel) score(mID int64) float64 {
	avg := 0.0
	if rs := m.ratings[mID]; len(rs) > 0 {
		sum := 0.0
		for _, r := range rs {
			sum += r // ratings are small integers: the sum is exact in any order
		}
		avg = sum / float64(len(rs))
	}
	total := 0.0
	total += 100 * avg
	total += 0.5 * float64(m.visits[mID])
	total += 1 * float64(m.downloads[mID])
	return clampScore(total)
}

func readArchiveModel(t *testing.T, db *relation.DB) *archiveModel {
	t.Helper()
	m := &archiveModel{
		live: map[int64]bool{}, ratings: map[int64]map[int64]float64{},
		visits: map[int64]int64{}, downloads: map[int64]int64{}, reviewOf: map[int64]int64{},
	}
	scan := func(table string, visit func(relation.Row)) {
		tbl, err := db.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Scan(func(r relation.Row) bool { visit(r); return true }); err != nil {
			t.Fatal(err)
		}
	}
	scan("Movies", func(r relation.Row) { m.live[r[0].I] = true })
	scan("Statistics", func(r relation.Row) { m.visits[r[1].I], m.downloads[r[1].I] = r[2].I, r[3].I })
	scan("Reviews", func(r relation.Row) { m.addReview(r[0].I, r[1].I, r[2].F) })
	return m
}

func (m *archiveModel) addReview(rID, mID int64, rating float64) {
	if m.ratings[mID] == nil {
		m.ratings[mID] = map[int64]float64{}
	}
	m.ratings[mID][rID] = rating
	m.reviewOf[rID] = mID
}

// requireScoresMatchModel checks, on every index, that ScoreOf agrees with
// the model for every document that ever existed.
func requireScoresMatchModel(t *testing.T, e *Engine, m *archiveModel, step string) {
	t.Helper()
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := ti.MaintenanceErr(); err != nil {
			t.Fatalf("%s: index %q maintenance: %v", step, name, err)
		}
		for mID, live := range m.live {
			got, ok, err := ti.ScoreOf(mID)
			if err != nil {
				t.Fatalf("%s: index %q ScoreOf(%d): %v", step, name, mID, err)
			}
			if ok != live || (live && got != m.score(mID)) {
				t.Fatalf("%s: index %q ScoreOf(%d) = %g (present %v), spec over the tables says %g (live %v)",
					step, name, mID, got, ok, m.score(mID), live)
			}
		}
	}
}

// TestScoreOfEqualsSpec is the model-based guard on the one Score table:
// random movie inserts (fresh and reused IDs), Statistics updates (negative
// counters included, so the clamp is exercised), review inserts and deletes,
// description edits and movie deletes run in and out of ApplyBatch over all
// six methods; after every step, and after every close → Open, each index
// must report exactly the spec's clamped score for every live document and
// nothing for a deleted one.
func TestScoreOfEqualsSpec(t *testing.T) {
	const nMovies = 30
	path := filepath.Join(t.TempDir(), "archive.svrdb")
	buildDurableArchive(t, path, nMovies)
	e, err := Open(path, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	model := readArchiveModel(t, e.DB())
	requireScoresMatchModel(t, e, model, "after build and reopen")

	rng := rand.New(rand.NewSource(23))
	nextMovie, nextReview := int64(nMovies+1), int64(1_000_000)
	pick := func(want bool) (int64, bool) {
		var ids []int64
		for id, live := range model.live {
			if live == want {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) // map order is random; the run repeats per seed
		return ids[rng.Intn(len(ids))], true
	}
	desc := func() string {
		words := []string{"golden", "gate", "bridge", "san", "francisco", "fog", "ferry", "harbor"}
		out := make([]string, 3+rng.Intn(5))
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(out, " ")
	}

	for step := 0; step < 120; step++ {
		db := e.DB()
		movies, _ := db.Table("Movies")
		reviews, _ := db.Table("Reviews")
		stats, _ := db.Table("Statistics")
		var what string
		var op func() error
		switch k := rng.Intn(10); {
		case k < 3:
			mID, _ := pick(true)
			visits := rng.Int63n(200000) - 40000
			what = fmt.Sprintf("set nVisit of %d to %d", mID, visits)
			op = func() error {
				// A movie inserted by this test has no Statistics row yet.
				_, has := model.visits[mID]
				model.visits[mID] = visits
				if !has {
					model.downloads[mID] = 7
					return stats.Insert(relation.Row{relation.Int(mID), relation.Int(mID), relation.Int(visits), relation.Int(7)})
				}
				return stats.Update(mID, map[string]relation.Value{"nVisit": relation.Int(visits)})
			}
		case k < 5:
			mID, _ := pick(true)
			rID, rating := nextReview, float64(rng.Intn(5)+1)
			nextReview++
			what = fmt.Sprintf("review %d of %d", rID, mID)
			op = func() error {
				model.addReview(rID, mID, rating)
				return reviews.Insert(relation.Row{relation.Int(rID), relation.Int(mID), relation.Float(rating)})
			}
		case k < 6:
			var rID int64 = -1
			for id := range model.reviewOf {
				if rID < 0 || id < rID {
					rID = id
				}
			}
			if rID < 0 {
				continue
			}
			what = fmt.Sprintf("delete review %d", rID)
			op = func() error {
				delete(model.ratings[model.reviewOf[rID]], rID)
				delete(model.reviewOf, rID)
				return reviews.Delete(rID)
			}
		case k < 7:
			mID, _ := pick(true)
			what = fmt.Sprintf("edit description of %d", mID)
			op = func() error { return movies.Update(mID, map[string]relation.Value{"desc": relation.Str(desc())}) }
		case k < 9:
			mID, reused := pick(false)
			if !reused || rng.Intn(2) == 0 {
				mID = nextMovie
				nextMovie++
			}
			what = fmt.Sprintf("insert movie %d", mID)
			op = func() error {
				// A reused ID finds its orphaned Statistics and Reviews rows.
				model.live[mID] = true
				return movies.Insert(relation.Row{relation.Int(mID), relation.Str("New"), relation.Str(desc())})
			}
		default:
			mID, _ := pick(true)
			what = fmt.Sprintf("delete movie %d", mID)
			op = func() error {
				model.live[mID] = false
				return movies.Delete(mID)
			}
		}
		if rng.Intn(2) == 0 {
			what += " (batched)"
			err = e.ApplyBatch(op)
		} else {
			err = op()
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		requireScoresMatchModel(t, e, model, fmt.Sprintf("step %d (%s)", step, what))

		if step%20 == 19 {
			if err := e.Close(); err != nil {
				t.Fatalf("step %d: close: %v", step, err)
			}
			if e, err = Open(path, durableOpts()); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			requireScoresMatchModel(t, e, model, fmt.Sprintf("step %d, reopened", step))
		}
	}
}

// TestViewMaintenanceErrorIsRecorded: a score component that fails must not
// leave the index silently serving a stale score.  The error reaches
// MaintenanceErr naming the component and the document, other documents keep
// updating, and the same component failing at build fails the create.
func TestViewMaintenanceErrorIsRecorded(t *testing.T) {
	engine, db := newArchiveEngine(t, 20)
	var failing atomic.Bool
	spec := view.Spec{Components: []view.Component{
		view.LookupColumn("Statistics", "nVisit", "mID"),
		{Name: "flaky", Eval: func(_ *relation.DB, pk int64) (float64, error) {
			if pk == 2 && failing.Load() {
				return 0, errors.New("remote scorer offline")
			}
			return 1, nil
		}},
	}}
	idx, err := engine.CreateTextIndex("idx", "Movies", "desc", IndexOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := db.Table("Statistics")
	before, _, _ := idx.ScoreOf(2)

	failing.Store(true)
	for _, mID := range []int64{2, 3} {
		if err := stats.Update(mID, map[string]relation.Value{"nVisit": relation.Int(777)}); err != nil {
			t.Fatal(err)
		}
	}
	merr := idx.MaintenanceErr()
	if merr == nil || !strings.Contains(merr.Error(), `"flaky"`) || !strings.Contains(merr.Error(), "doc 2") {
		t.Errorf("MaintenanceErr = %v, want it to name component \"flaky\" and doc 2", merr)
	}
	if got, _, _ := idx.ScoreOf(2); got != before {
		t.Errorf("document 2 scores %g after a failed evaluation, want its previous %g", got, before)
	}
	if got, _, _ := idx.ScoreOf(3); got != 778 {
		t.Errorf("document 3 scores %g, want 778: one failing document must not stop the others", got)
	}

	_, err = engine.CreateTextIndex("idx2", "Movies", "desc", IndexOptions{Spec: spec})
	if err == nil || !strings.Contains(err.Error(), `"flaky"`) {
		t.Errorf("create over a failing component = %v, want the component's error", err)
	}
	if _, err := engine.TextIndex("idx2"); err == nil {
		t.Error("a failed create registered its index")
	}
}

// TestTextEditIsNotAScoreUpdate: a text-only edit re-evaluates the row's
// score (the view keeps no copy to tell it nothing changed); the Score table
// absorbs the equal score, so the index performs a content update and no
// score update, eagerly and in a batch.
func TestTextEditIsNotAScoreUpdate(t *testing.T) {
	engine, db := newArchiveEngine(t, 20)
	movies, _ := db.Table("Movies")
	for _, kind := range AllMethods() {
		idx, err := engine.CreateTextIndex("idx-"+string(kind), "Movies", "desc", IndexOptions{Method: kind, Spec: workload.ArchiveSpec()})
		if err != nil {
			t.Fatal(err)
		}
		for i, edit := range []func(fn func() error) error{
			func(fn func() error) error { return fn() },
			engine.ApplyBatch,
		} {
			word := fmt.Sprintf("zebra%s%d", strings.ReplaceAll(string(kind), "-", ""), i)
			if err := edit(func() error {
				return movies.Update(5, map[string]relation.Value{"desc": relation.Str("golden " + word)})
			}); err != nil {
				t.Fatal(err)
			}
			res, err := idx.Search(SearchRequest{Query: word, K: 3})
			if err != nil || len(res.Hits) != 1 || res.Hits[0].PK != 5 {
				t.Errorf("%s edit %d: search for the new word = %+v, %v; the content update did not happen", kind, i, res, err)
			}
		}
		if got := idx.Stats().ScoreUpdates; got != 0 {
			t.Errorf("%s: two text-only edits performed %d score updates, want 0", kind, got)
		}
		if err := idx.MaintenanceErr(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// TestCatalogV2Refused: a file whose anchor says catalog version 2 (the last
// one with a Score view tree per index) is refused with an error naming both
// versions, and the refusal writes nothing.
func TestCatalogV2Refused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.svrdb")
	buildDurableArchive(t, path, 5)
	file, err := pagefile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gobBytes(&catalog{Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	var anchor pageChain
	if err := anchor.write(file, data); err != nil {
		t.Fatal(err)
	}
	if err := file.Commit(metaBytes(anchor.ref())); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	read := func() []byte {
		t.Helper()
		var all []byte
		for _, p := range []string{path, pagefile.WALPath(path)} {
			b, err := os.ReadFile(p)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			all = append(append(all, b...), 0xFF)
		}
		return all
	}
	before := read()
	e, err := Open(path, durableOpts())
	if err == nil {
		e.Close()
		t.Fatal("a version 2 catalog opened")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, "version 3") {
		t.Errorf("refusal = %q, want it to name version 2 and version 3", msg)
	}
	if !bytes.Equal(before, read()) {
		t.Error("refusing the file changed its bytes")
	}
}
