package index

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"svrdb/internal/postings"
)

// goldenWorkFile holds, one line per query, the work counters and the
// ranked (doc, score) pairs of every query TestQueryWorkGolden runs.
const goldenWorkFile = "testdata/query_work.golden"

// goldenCorpus is a seeded corpus over a skewed twelve-term vocabulary:
// the common terms have long lists spanning many chunks and fancy lists far
// shorter than their long lists, the rare ones a handful of postings.
func goldenCorpus() *testCorpus {
	rng := rand.New(rand.NewSource(51))
	c := newTestCorpus()
	for i := 1; i <= 600; i++ {
		c.add(DocID(i), float64(rng.Intn(100000))+rng.Float64(), goldenDoc(rng))
	}
	return c
}

// goldenDoc draws a document of 4-10 terms, low term numbers the likelier.
func goldenDoc(rng *rand.Rand) string {
	words := make([]string, 4+rng.Intn(7))
	for i := range words {
		words[i] = fmt.Sprintf("t%02d", min(rng.Intn(12), rng.Intn(12)))
	}
	return strings.Join(words, " ")
}

// goldenUpdates mutates a built index through every maintenance path and
// keeps corpus in step: score drifts and jumps that cross thresholds up and
// down (short lists, moved documents), an insert, a delete, a content edit,
// and further updates of the inserted and edited documents.
func goldenUpdates(t *testing.T, m Method, corpus *testCorpus) {
	t.Helper()
	rng := rand.New(rand.NewSource(52))
	apply := func(batch []Update) {
		t.Helper()
		if err := m.ApplyUpdates(batch); err != nil {
			t.Fatalf("%s: ApplyUpdates: %v", m.Name(), err)
		}
	}
	scoreBatch := func(n int, docs ...DocID) {
		var batch []Update
		for len(batch) < n {
			doc := DocID(1 + rng.Intn(600))
			if len(docs) > 0 {
				doc = docs[len(batch)%len(docs)]
			}
			score := corpus.scores[doc]
			if rng.Intn(2) == 0 {
				score *= 0.9 + rng.Float64()*0.2
			} else {
				score *= rng.Float64() * 16
			}
			corpus.scores[doc] = score
			batch = append(batch, Update{Op: ScoreOp, Doc: doc, Score: score})
		}
		apply(batch)
	}
	for range 15 {
		scoreBatch(10)
	}
	const inserted = DocID(601)
	corpus.add(inserted, 99999, "t00 t01 t02 t03 t00 t09")
	apply([]Update{{Op: InsertOp, Doc: inserted, Tokens: corpus.docs[inserted], Score: 99999}})
	const deleted = DocID(17)
	apply([]Update{{Op: DeleteOp, Doc: deleted, OldTokens: corpus.docs[deleted]}})
	const edited = DocID(42)
	newTokens := strings.Fields("t00 t01 t10 t10 t11")
	apply([]Update{{Op: ContentOp, Doc: edited, OldTokens: corpus.docs[edited], NewTokens: newTokens}})
	corpus.docs[edited] = newTokens
	scoreBatch(4, inserted, edited)
	scoreBatch(10)
}

// TestQueryWorkGolden pins the work every kind's query does — the postings
// scanned, the Score lookups, whether the scan stopped early — and the
// ranked (doc, score) pairs, for conjunctive and disjunctive queries, with
// and without term scores where the kind stores them, over an index that
// went through every maintenance path.  A change to the read path that
// does not mean to change what a query does must leave every line of the
// file as it is; one that does re-records it and says which lines moved
// and why.
func TestQueryWorkGolden(t *testing.T) {
	want, err := os.ReadFile(goldenWorkFile)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, kind := range Kinds() {
		corpus := goldenCorpus()
		m := buildMethod(t, kind.Name, allConstructors()[kind.Name], corpus)
		goldenUpdates(t, m, corpus)
		if st := m.Stats(); kind.keyedRows && st.ShortListEntries == 0 {
			t.Fatalf("%s: the updates left no short-list posting", kind.Name)
		}
		termScores := []bool{false}
		if kind.layout == postings.LayoutIDTerm || kind.layout == postings.LayoutChunkTerm {
			termScores = append(termScores, true)
		}
		for _, ts := range termScores {
			for _, disjunctive := range []bool{false, true} {
				for _, terms := range [][]string{{"t00"}, {"t00", "t01"}, {"t02", "t05"}, {"t01", "t03", "t06"}, {"t09", "t11"}} {
					for _, k := range []int{1, 4, 12} {
						q := Query{Terms: terms, K: k, Disjunctive: disjunctive, WithTermScores: ts}
						res, err := m.TopK(q)
						if err != nil {
							t.Fatalf("%s %+v: %v", kind.Name, q, err)
						}
						fmt.Fprintf(&got, "%s disj=%v ts=%v %s k=%d scanned=%d lookups=%d stopped=%v",
							kind.Name, disjunctive, ts, strings.Join(terms, "+"), k, res.PostingsScanned, res.ScoreLookups, res.Stopped)
						for _, r := range res.Results {
							fmt.Fprintf(&got, " %d:%g", r.Doc, r.Score)
						}
						got.WriteByte('\n')
					}
				}
			}
		}
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
