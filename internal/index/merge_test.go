package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestMergeShortListsPreservesResults verifies that after a heavy update
// workload (score updates, insertions, deletions, content updates) the
// offline merge empties the short lists, shrinks the ListScore/ListChunk
// bookkeeping work, and — most importantly — leaves query results identical
// to the pre-merge answers (which the oracle tests already prove correct).
func TestMergeShortListsPreservesResults(t *testing.T) {
	vocab := []string{"amber", "basalt", "cedar", "dune", "ember", "fjord", "grove", "heath"}
	const nDocs = 150
	makeCorpus := func() *testCorpus {
		rng := rand.New(rand.NewSource(99))
		corpus := newTestCorpus()
		for i := 0; i < nDocs; i++ {
			n := rng.Intn(5) + 2
			words := make([]string, n)
			for j := range words {
				words[j] = vocab[rng.Intn(len(vocab))]
			}
			corpus.add(DocID(i+1), float64(rng.Intn(100000)), strings.Join(words, " "))
		}
		return corpus
	}

	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := makeCorpus()
			m := buildMethod(t, name, ctor, corpus)
			o := newOracle(corpus)
			localRng := rand.New(rand.NewSource(5))

			// Score updates, some of them dramatic.
			for u := 0; u < 300; u++ {
				doc := DocID(localRng.Intn(nDocs) + 1)
				newScore := float64(localRng.Intn(500000))
				if err := updateScore(m, doc, newScore); err != nil {
					t.Fatal(err)
				}
				o.scores[doc] = newScore
			}
			// A few insertions.
			for i := 0; i < 10; i++ {
				doc := DocID(nDocs + 100 + i)
				content := vocab[i%len(vocab)] + " " + vocab[(i+3)%len(vocab)]
				tokens := strings.Fields(content)
				score := float64(localRng.Intn(200000))
				corpus.add(doc, score, content)
				if err := insertDocument(m, doc, tokens, score); err != nil {
					t.Fatal(err)
				}
				o.setTokens(doc, tokens)
				o.scores[doc] = score
			}
			// A deletion.
			if err := deleteDocument(m, 7); err != nil {
				t.Fatal(err)
			}
			o.deleted[7] = true

			queries := [][]string{{"amber"}, {"cedar", "dune"}, {"fjord", "grove"}}
			before := map[string][]float64{}
			for _, q := range queries {
				res, err := m.TopK(Query{Terms: q, K: 8})
				if err != nil {
					t.Fatal(err)
				}
				before[strings.Join(q, "+")] = resultScores(res.Results)
				// Sanity: pre-merge results match the oracle.
				checkTopKScores(t, name+" pre-merge "+strings.Join(q, "+"), res.Results, o.topK(q, 8, false))
			}

			// The merge rebuilds from the Score table's own rows, so all it
			// writes back there is the cleared short-list bit of every moved
			// document: one patch per moved row, and no bit left set.
			scorePatches := baseOf(m).published.Load().score.Patches()
			moved := shortDocs(t, baseOf(m))
			if err := m.MergeShortLists(); err != nil {
				t.Fatalf("MergeShortLists: %v", err)
			}
			if got := baseOf(m).published.Load().score.Patches(); got != scorePatches+uint64(len(moved)) {
				t.Errorf("merge patched the Score table %d times, want once for each of the %d moved documents", got-scorePatches, len(moved))
			}
			if left := shortDocs(t, baseOf(m)); len(left) != 0 {
				t.Errorf("short-list bit still set after the merge on %v", left)
			}
			if name != "Score" {
				if got := m.Stats().ShortListEntries; got != 0 {
					t.Errorf("short lists not empty after merge: %d entries", got)
				}
			}
			for _, q := range queries {
				res, err := m.TopK(Query{Terms: q, K: 8})
				if err != nil {
					t.Fatalf("TopK after merge: %v", err)
				}
				checkTopKScores(t, name+" post-merge "+strings.Join(q, "+"), res.Results, before[strings.Join(q, "+")])
			}

			// The index must remain fully usable after the merge: more
			// updates and queries keep matching the oracle.
			for u := 0; u < 100; u++ {
				doc := DocID(localRng.Intn(nDocs) + 1)
				if o.deleted[doc] {
					continue
				}
				newScore := float64(localRng.Intn(300000))
				if err := updateScore(m, doc, newScore); err != nil {
					t.Fatal(err)
				}
				o.scores[doc] = newScore
			}
			for _, q := range queries {
				res, err := m.TopK(Query{Terms: q, K: 8})
				if err != nil {
					t.Fatal(err)
				}
				checkTopKScores(t, name+" post-merge updates "+strings.Join(q, "+"), res.Results, o.topK(q, 8, false))
			}
		})
	}
}

// baseOf returns the shared base of a method of any kind.
func baseOf(m Method) *base {
	switch k := m.(type) {
	case *base:
		return k
	case *scoreMethod:
		return k.base
	case *thresholdMethod:
		return k.base
	}
	panic(fmt.Sprintf("unknown method type %T", m))
}

func TestMergeRestoresQueryEfficiency(t *testing.T) {
	// After many flash-crowd updates the Chunk method accumulates short-list
	// postings; the offline merge folds them back so queries scan fewer
	// postings again.
	corpus := newTestCorpus()
	rng := rand.New(rand.NewSource(17))
	const nDocs = 2000
	for i := 0; i < nDocs; i++ {
		corpus.add(DocID(i+1), float64(rng.Intn(100000)), "common term"+fmt.Sprint(i%7))
	}
	m := buildMethod(t, "Chunk", allConstructors()["Chunk"], corpus)

	// Flash crowd: many documents jump far above their chunk.
	for i := 0; i < 400; i++ {
		doc := DocID(rng.Intn(nDocs) + 1)
		if err := updateScore(m, doc, float64(1_000_000+rng.Intn(1_000_000))); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().ShortListEntries == 0 {
		t.Fatal("expected short-list postings after flash-crowd updates")
	}
	q := Query{Terms: []string{"common"}, K: 5}
	beforeRes, err := m.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MergeShortLists(); err != nil {
		t.Fatal(err)
	}
	afterRes, err := m.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	checkTopKScores(t, "merge efficiency", afterRes.Results, resultScores(beforeRes.Results))
	if m.Stats().ShortListEntries != 0 {
		t.Errorf("short lists should be empty after merge, have %d", m.Stats().ShortListEntries)
	}
	if afterRes.PostingsScanned > beforeRes.PostingsScanned {
		t.Errorf("merge should not increase postings scanned: before %d, after %d",
			beforeRes.PostingsScanned, afterRes.PostingsScanned)
	}
}
