package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestMergeShortListsPreservesResults verifies that after a heavy update
// workload (score updates, insertions, deletions, content updates) the
// offline merge empties the short lists, re-keys every Score row, and —
// most importantly — leaves query results identical to the pre-merge
// answers (which the oracle tests already prove correct).
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

			// The merge bulk-loads a fresh Score table rather than patching
			// the re-keyed rows of the old one: no row patched, every live row
			// filed under the key of its score with no short-list bit, and
			// the deleted marker kept.  (Score has nothing to merge.)
			if err := m.MergeShortLists(); err != nil {
				t.Fatalf("MergeShortLists: %v", err)
			}
			b := baseOf(m)
			if got := b.published.Load().score.Patches(); got != 0 && !b.kind.clustered {
				t.Errorf("merge patched the Score table %d times, want a fresh table", got)
			}
			if left := shortDocs(t, b); len(left) != 0 {
				t.Errorf("short-list bit still set after the merge on %v", left)
			}
			if err := b.score.ForEach(func(doc DocID, r docRow) bool {
				if r.deleted != o.deleted[doc] || b.kind.keyedRows && !r.deleted && r.key != b.keyOf(r.val) {
					t.Errorf("document %d's row after the merge = %+v, want key %g, deleted=%v", doc, r, b.keyOf(r.val), o.deleted[doc])
				}
				return true
			}); err != nil {
				t.Fatal(err)
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
