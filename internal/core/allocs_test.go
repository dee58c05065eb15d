package core

import (
	"testing"

	"svrdb/internal/relation"
	"svrdb/internal/workload"
)

// The search allocation budgets cap the heap allocations of one two-term
// k=10 search on a built threshold-family index.  What remains is per query, not
// per candidate: tokenizing, two long-list readers and their decode buffers,
// two short-list scans, the merger, the heap and the result — and, for
// Algorithm 3, two fancy-list readers and their merger.  Before the B+-tree
// probes read leaves in place the conjunctive search allocated thousands of
// objects — every key and value of every leaf a probe jumped to — and nothing
// noticed; the budgets are here so that cannot happen silently again.  Each
// is the measured count plus about 20 % headroom.
const (
	// searchAllocBudget prices a conjunctive search on a Chunk index
	// (measured: 57–58).
	searchAllocBudget = 70
	// termScoreSearchAllocBudget prices a with_term_scores search on a
	// Chunk-TermScore index, Algorithm 3 (measured: 72–73).  Its remainList is
	// flat scratch in the pooled query context and is pruned through a
	// leaf-locality cursor; with a map per listed document and a copying
	// descent per pruned one the same search allocated 310 objects.
	termScoreSearchAllocBudget = 88
	// scoreThresholdSearchAllocBudget prices the same conjunctive search on a
	// Score-Threshold index (measured: 58).  Its resolver reads both tables by
	// full descent, in no document order; when every descent copied the row
	// it returned onto the heap the search allocated 204 objects.
	scoreThresholdSearchAllocBudget = 70
	// raceSearchAllocBudget replaces both under the race detector, where
	// sync.Pool drops items at random and the pooled query scratch is
	// sometimes rebuilt: it is the bound the conjunctive search carried
	// before the budgets were tightened, and it still catches a per-candidate
	// allocation.
	raceSearchAllocBudget = 150
)

func TestSearchAllocBudget(t *testing.T) {
	const nMovies = 600
	engine, db := newArchiveEngine(t, nMovies)
	create := func(name string, method MethodKind) *TextIndex {
		idx, err := engine.CreateTextIndex(name, "Movies", "desc", IndexOptions{
			Method: method,
			Spec:   workload.ArchiveSpec(),
			// Small chunks, so that there are enough of them for the updates
			// below to lift documents two chunks up.
			ChunkRatio:   1.5,
			MinChunkSize: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	chunk, termScore, scoreThreshold := create("m", MethodChunk), create("mts", MethodChunkTermScore), create("mst", MethodScoreThreshold)
	// Raise every other movie's score so the searches resolve candidates
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
	for _, leg := range []struct {
		name   string
		idx    *TextIndex
		req    SearchRequest
		budget int
	}{
		{"conj2 k=10 Chunk", chunk, SearchRequest{Query: "golden gate", K: 10}, searchAllocBudget},
		{"with_term_scores k=10 Chunk-TermScore", termScore, SearchRequest{Query: "golden gate", K: 10, WithTermScores: true}, termScoreSearchAllocBudget},
		{"conj2 k=10 Score-Threshold", scoreThreshold, SearchRequest{Query: "golden gate", K: 10}, scoreThresholdSearchAllocBudget},
	} {
		t.Run(leg.name, func(t *testing.T) {
			if st := leg.idx.Stats(); st.ShortListEntries == 0 {
				t.Fatal("the update batch moved nothing into the short lists")
			}
			res, err := leg.idx.Search(leg.req)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Hits) != 10 {
				t.Fatalf("warm-up search returned %d hits, want 10 (the budget must price real candidate resolution)", len(res.Hits))
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := leg.idx.Search(leg.req); err != nil {
					t.Fatal(err)
				}
			})
			budget := leg.budget
			if raceEnabled {
				budget = raceSearchAllocBudget
			}
			t.Logf("%s search: %.0f allocs (%d postings scanned)", leg.name, allocs, res.PostingsScanned)
			if allocs > float64(budget) {
				t.Errorf("%s search allocates %.0f objects, budget %d", leg.name, allocs, budget)
			}
		})
	}
}
