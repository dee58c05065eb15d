package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

// applyArchiveMutations performs a deterministic burst of structured
// updates — visit-count bumps (score changes through the view), description
// edits (content updates) and row deletions — against an archive database.
func applyArchiveMutations(t *testing.T, db *relation.DB, nMovies, rounds int) func() error {
	t.Helper()
	return func() error {
		stats, err := db.Table("Statistics")
		if err != nil {
			return err
		}
		movies, err := db.Table("Movies")
		if err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			mID := int64(i%nMovies + 1)
			row, err := stats.Get(mID)
			if err != nil {
				return err
			}
			if err := stats.Update(mID, map[string]relation.Value{
				"nVisit": relation.Int(row[2].I + int64(500+i*37%900)),
			}); err != nil {
				return err
			}
			if i%7 == 0 {
				mrow, err := movies.Get(mID)
				if err != nil {
					return err
				}
				if err := movies.Update(mID, map[string]relation.Value{
					"desc": relation.Str(mrow[2].S + fmt.Sprintf(" remastered edition %d", i)),
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestApplyBatchMatchesEagerMaintenance drives the same structured-update
// burst through two engines — one flushing each change as it happens (the
// mutations run outside ApplyBatch), one inside ApplyBatch — and requires
// identical search results afterwards.
func TestApplyBatchMatchesEagerMaintenance(t *testing.T) {
	const nMovies = 120
	for _, method := range []MethodKind{MethodID, MethodScoreThreshold, MethodChunk, MethodChunkTermScore} {
		t.Run(string(method), func(t *testing.T) {
			eagerEngine, eagerDB := newArchiveEngine(t, nMovies)
			batchEngine, batchDB := newArchiveEngine(t, nMovies)
			eagerIdx, err := eagerEngine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Method: method, Spec: workload.ArchiveSpec()})
			if err != nil {
				t.Fatal(err)
			}
			batchIdx, err := batchEngine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Method: method, Spec: workload.ArchiveSpec()})
			if err != nil {
				t.Fatal(err)
			}

			if err := applyArchiveMutations(t, eagerDB, nMovies, 300)(); err != nil {
				t.Fatalf("eager mutations: %v", err)
			}
			if err := batchEngine.ApplyBatch(applyArchiveMutations(t, batchDB, nMovies, 300)); err != nil {
				t.Fatalf("ApplyBatch: %v", err)
			}
			if err := eagerIdx.MaintenanceErr(); err != nil {
				t.Fatalf("eager maintenance: %v", err)
			}
			if err := batchIdx.MaintenanceErr(); err != nil {
				t.Fatalf("batch maintenance: %v", err)
			}

			for _, q := range []string{"golden gate", "san francisco", "amateur film", "remastered edition"} {
				eRes, err := eagerIdx.Search(SearchRequest{Query: q, K: 20})
				if err != nil {
					t.Fatalf("eager search %q: %v", q, err)
				}
				bRes, err := batchIdx.Search(SearchRequest{Query: q, K: 20})
				if err != nil {
					t.Fatalf("batch search %q: %v", q, err)
				}
				if len(eRes.Hits) != len(bRes.Hits) {
					t.Fatalf("query %q: %d hits (eager) vs %d (batched)", q, len(eRes.Hits), len(bRes.Hits))
				}
				for i := range eRes.Hits {
					if eRes.Hits[i].PK != bRes.Hits[i].PK || eRes.Hits[i].Score != bRes.Hits[i].Score {
						t.Errorf("query %q hit %d: eager (%d, %g) vs batched (%d, %g)",
							q, i, eRes.Hits[i].PK, eRes.Hits[i].Score, bRes.Hits[i].PK, bRes.Hits[i].Score)
					}
				}
			}
		})
	}
}

// TestApplyBatchPanicStillFlushes checks that a panic inside fn does not
// leave the indexes stuck in deferred-maintenance mode: the changes made
// before the panic flush, and later changes outside a batch keep flowing.
func TestApplyBatchPanicStillFlushes(t *testing.T) {
	const nMovies = 50
	engine, db := newArchiveEngine(t, nMovies)
	idx, err := engine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Spec: workload.ArchiveSpec()})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := db.Table("Statistics")
	if err != nil {
		t.Fatal(err)
	}
	bump := func(mID int64, delta int64) {
		row, err := stats.Get(mID)
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.Update(mID, map[string]relation.Value{"nVisit": relation.Int(row[2].I + delta)}); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of ApplyBatch")
			}
		}()
		_ = engine.ApplyBatch(func() error {
			bump(1, 1_000_000)
			panic("boom")
		})
	}()
	// The pre-panic change must have flushed into the index...
	s, ok, err := idx.ScoreOf(1)
	if err != nil || !ok {
		t.Fatalf("ScoreOf(1): %v %v", ok, err)
	}
	if s < 500_000 {
		t.Errorf("pre-panic score change not flushed: score %g", s)
	}
	// ...and a change outside a batch must flush at once again afterwards.
	bump(2, 2_000_000)
	if err := idx.MaintenanceErr(); err != nil {
		t.Fatal(err)
	}
	s2, ok, err := idx.ScoreOf(2)
	if err != nil || !ok || s2 < 1_000_000 {
		t.Errorf("update after recovered panic not applied: score %g, %v, %v", s2, ok, err)
	}
}

// TestChangeQueueKeepsEditOrder races text edits of one shared set of rows
// from goroutines that mutate directly (each event flushed by the notifying
// goroutine) against goroutines that mutate inside ApplyBatch (events
// flushed at the batch's end).  Every edit writes a token used nowhere else,
// so a content diff applied out of order would leave a row findable under a
// retired token or missing under its final one.  Run under -race this is the
// data-race gate for the maintenance queue.
func TestChangeQueueKeepsEditOrder(t *testing.T) {
	const nRows, writers, edits = 6, 4, 30
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 2048))
	tbl, err := db.CreateTable(relation.Schema{
		Name: "Docs",
		Columns: []relation.Column{
			{Name: "id", Kind: relation.KindInt64},
			{Name: "body", Kind: relation.KindString},
			{Name: "val", Kind: relation.KindFloat64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// written[writers] holds the rows' first tokens, which every row retires.
	written := make([][]string, writers+1)
	for pk := int64(1); pk <= nRows; pk++ {
		token := fmt.Sprintf("start%d", pk)
		written[writers] = append(written[writers], token)
		if err := tbl.Insert(relation.Row{relation.Int(pk), relation.Str("shared " + token), relation.Float(float64(pk))}); err != nil {
			t.Fatal(err)
		}
	}
	engine := NewEngine(db, Options{})
	var idxs []*TextIndex
	for _, method := range []MethodKind{MethodChunk, MethodScore} {
		idx, err := engine.CreateTextIndex(string(method), "Docs", "body", IndexOptions{
			Method: method,
			Spec:   view.Spec{Components: []view.Component{view.OwnColumn("Docs", "val")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edit := func(i int) error {
				pk := int64((w*7+i)%nRows + 1)
				token := fmt.Sprintf("w%de%d", w, i)
				written[w] = append(written[w], token)
				return tbl.Update(pk, map[string]relation.Value{"body": relation.Str("shared " + token)})
			}
			for i := 0; i < edits; i += 3 {
				var err error
				if w%2 == 0 {
					err = engine.ApplyBatch(func() error {
						return errors.Join(edit(i), edit(i+1), edit(i+2))
					})
				} else {
					err = errors.Join(edit(i), edit(i+1), edit(i+2))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	final := map[string]int64{}
	for pk := int64(1); pk <= nRows; pk++ {
		row, err := tbl.Get(pk)
		if err != nil {
			t.Fatal(err)
		}
		final[engine.Analyzer().Tokenize(row[1].S)[1]] = pk
	}
	for _, idx := range idxs {
		if err := idx.MaintenanceErr(); err != nil {
			t.Errorf("%s: maintenance errors: %v", idx.Name(), err)
		}
		for _, tokens := range written {
			for _, token := range tokens {
				res, err := idx.Search(SearchRequest{Query: token, K: 5})
				if err != nil {
					t.Fatal(err)
				}
				pk, live := final[token]
				switch {
				case live && (len(res.Hits) != 1 || res.Hits[0].PK != pk):
					t.Errorf("%s: row %d's final token %q finds %+v", idx.Name(), pk, token, res.Hits)
				case !live && len(res.Hits) != 0:
					t.Errorf("%s: retired token %q still finds %+v", idx.Name(), token, res.Hits)
				}
			}
		}
	}
}

// TestApplyBatchPropagatesErrors checks that a failing mutation function
// surfaces its error and that the engine stays usable.
func TestApplyBatchPropagatesErrors(t *testing.T) {
	engine, _ := newArchiveEngine(t, 50)
	idx, err := engine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Spec: workload.ArchiveSpec()})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("mutation failed")
	if err := engine.ApplyBatch(func() error { return wantErr }); err == nil {
		t.Fatal("ApplyBatch swallowed the mutation error")
	}
	if _, err := idx.Search(SearchRequest{Query: "golden gate", K: 5}); err != nil {
		t.Fatalf("engine unusable after failed batch: %v", err)
	}
}
