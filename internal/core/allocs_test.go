package core

import (
	"testing"

	"svrdb/internal/relation"
	"svrdb/internal/workload"
)

// searchAllocBudget caps the heap allocations of one conjunctive two-term
// k=10 search on a built Chunk index.  What remains is per query, not per
// candidate: tokenizing, two long-list readers and their decode buffers, two
// short-list scans, the merger, the heap and the result.  Before the B+-tree
// probes read leaves in place the same search allocated thousands of objects
// — every key and value of every leaf a probe jumped to — and nothing
// noticed; the budget is here so that cannot happen silently again.
const searchAllocBudget = 150

func TestSearchAllocBudget(t *testing.T) {
	const nMovies = 600
	engine, db := newArchiveEngine(t, nMovies)
	idx, err := engine.CreateTextIndex("m", "Movies", "desc", IndexOptions{
		Method: MethodChunk,
		Spec:   workload.ArchiveSpec(),
		// Small chunks, so that there are enough of them for the updates
		// below to lift documents two chunks up.
		ChunkRatio:   1.5,
		MinChunkSize: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Raise every other movie's score so the search resolves candidates
	// through a populated ListChunk table and non-empty short lists, not
	// just the freshly built long lists.
	stats, err := db.Table("Statistics")
	if err != nil {
		t.Fatal(err)
	}
	err = engine.ApplyBatch(func() error {
		for pk := int64(1); pk <= nMovies; pk += 2 {
			row, err := stats.Get(pk)
			if err != nil {
				return err
			}
			if err := stats.Update(pk, map[string]relation.Value{"nVisit": relation.Int(row[2].I + 40_000*pk)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := idx.Stats(); st.ShortListEntries == 0 {
		t.Fatal("the update batch moved nothing into the short lists")
	}
	req := SearchRequest{Query: "golden gate", K: 10}
	res, err := idx.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 10 {
		t.Fatalf("warm-up search returned %d hits, want 10 (the budget must price real candidate resolution)", len(res.Hits))
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := idx.Search(req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("conj2 k=10 Chunk search: %.0f allocs (%d postings scanned)", allocs, res.PostingsScanned)
	if allocs > searchAllocBudget {
		t.Errorf("conj2 k=10 Chunk search allocates %.0f objects, budget %d", allocs, searchAllocBudget)
	}
}
