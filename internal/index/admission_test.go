package index

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"svrdb/internal/text"
)

// idfs returns the oracle's own idf of every query term over its live
// documents.
func (o *oracle) idfs(terms []string) []float64 {
	live := 0
	df := make([]int64, len(terms))
	for doc := range o.tokens {
		if o.deleted[doc] {
			continue
		}
		live++
		for i, term := range terms {
			if o.contains(doc, term) {
				df[i]++
			}
		}
	}
	out := make([]float64, len(terms))
	for i := range terms {
		out[i] = text.IDF(text.CollectionStats{NumDocs: int64(live)}, df[i])
	}
	return out
}

// TestAdmissionCutIsExact is the exactness oracle for the Chunk orders'
// admission cut, which drops a candidate the result heap would not admit
// before consulting the ListChunk table.  Algorithms 2 and 3, conjunctive
// and disjunctive, are compared as (doc, score) pairs against a brute-force
// ranking under the heap's tie rule, so a cut at the wrong score (Algorithm 3
// cutting on the SVR score alone, not the combined score it ranks by) or at
// the wrong tie (an equal score with a smaller document ID must still
// displace the weakest result) shows as a wrong document even where every
// score agrees.  The corpus is shaped for that: few distinct scores and few
// distinct contents, so scores and combined scores tie often; most documents
// match the query terms, so k fills early and the cut decides most
// candidates; and the updates lift documents two chunks and more, leaving
// stale long-list copies in the scan, move them within a chunk, so equal
// scores arrive out of document order, and drop them.
func TestAdmissionCutIsExact(t *testing.T) {
	for _, name := range []string{"Chunk", "Chunk-TermScore"} {
		t.Run(name, func(t *testing.T) { checkRankedPairsUnderTies(t, name, []int{1, 3, 10, 40}, 0) })
	}
}

// TestScoreThresholdTiesAreExact is the same oracle for Score-Threshold,
// whose stopping bound t·listScore is attainable: many updates lift a
// document not updated since the build to exactly t times its list score,
// which Algorithm 1 leaves unrewritten, so the scan must not stop at a bound
// equal to the weakest result's score while such a document with a smaller
// ID is still unread.
func TestScoreThresholdTiesAreExact(t *testing.T) {
	checkRankedPairsUnderTies(t, "Score-Threshold", []int{1, 3, 10}, newTestConfig(t).ThresholdRatio)
}

// checkRankedPairsUnderTies compares method name's answers, as (doc, score)
// pairs, against the oracle's brute-force ranking over a corpus where scores
// tie often, under rounds of updates, for every query term set, k,
// conjunctive and disjunctive, and the combined score where the method has
// one.  A non-zero ratio keeps updates within the build's score range and
// makes every third update of a document not updated since the build set its
// score to ratio times its build score, when that stays in the range too.
func checkRankedPairsUnderTies(t *testing.T, name string, ks []int, ratio float64) {
	contents := []string{"ant bee", "ant bee cat", "ant cat", "bee cat dog", "ant", "ant bee cat dog", "ant ant bee", "cat dog"}
	rng := rand.New(rand.NewSource(30))
	corpus := newTestCorpus()
	const nDocs, maxScore = 500, 40
	for i := 1; i <= nDocs; i++ {
		corpus.add(DocID(i), float64(1+rng.Intn(maxScore)), contents[rng.Intn(len(contents))])
	}
	queries := [][]string{{"ant"}, {"ant", "bee"}, {"bee", "cat"}, {"cat", "ant", "dog"}}
	m := buildMethod(t, name, allConstructors()[name], corpus)
	o := newOracle(corpus)
	built, updated := maps.Clone(o.scores), map[DocID]bool{}
	rng = rand.New(rand.NewSource(31))
	queried, full := 0, 0
	for round := 0; round < 8; round++ {
		for u := 0; u < 60; u++ {
			doc := DocID(1 + rng.Intn(nDocs))
			// Mostly within the build's score range; now and then above it,
			// into the open top chunk.
			score := float64(1 + rng.Intn(maxScore+maxScore/4))
			if ratio > 0 {
				// Within the build's range, so the top k tie at its top
				// score, and a third of the time exactly ratio times the
				// list score of a document not updated since the build.
				score = min(score, maxScore)
				if lifted := ratio * built[doc]; u%3 == 0 && !updated[doc] && lifted <= maxScore {
					score = lifted
				}
			}
			updated[doc] = true
			if err := updateScore(m, doc, score); err != nil {
				t.Fatal(err)
			}
			o.scores[doc] = score
		}
		for _, terms := range queries {
			for _, k := range ks {
				for _, disjunctive := range []bool{false, true} {
					for _, combined := range []bool{false, true} {
						if combined && name != "Chunk-TermScore" {
							continue
						}
						q := Query{Terms: terms, K: k, Disjunctive: disjunctive, WithTermScores: combined}
						var idfs []float64
						if combined {
							idfs = o.idfs(terms)
						}
						res, err := m.TopK(q)
						if err != nil {
							t.Fatal(err)
						}
						want := o.rankedPairs(terms, k, disjunctive, idfs)
						if !slices.Equal(res.Results, want) {
							t.Fatalf("round %d %+v:\n got %v\nwant %v", round, q, res.Results, want)
						}
						queried++
						if len(want) == k {
							full++
						}
					}
				}
			}
		}
	}
	if st := m.Stats(); st.ShortListPostingsWritten == 0 {
		t.Fatal("no update moved a document into the short lists: no stale long-list copy was scanned")
	}
	if full < queried*3/4 {
		t.Fatalf("only %d of %d queries filled k: ties at the cut were rarely exercised", full, queried)
	}
	t.Logf("%d queries, %d with a full heap", queried, full)
}
