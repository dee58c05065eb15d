package index

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestKeyCeilingBoundsEveryLiveScore checks the Chunk orders' key ceilings
// against a model of where Algorithm 1, inserts and merges file each
// document.  Random batches of score rises and falls that cross a threshold
// and that do not, inserts, deletes, deletes of a pk followed by its
// re-insert, and content edits run between merges and State → Restore
// reopens.  After every step:
//
//   - every live document's score is at most the ceiling of its list key,
//     in the running ceilings and in the ones a Restore of the current state
//     re-derives;
//   - a ceiling is below the upper bound of the chunk one above its key
//     wherever that bound is finite, so the stopping rules never stop later
//     than the paper's;
//   - the re-derived ceilings are at most the running ones, and the
//     snapshot publishes the running maximum of the running ones;
//   - every query matches the brute-force oracle.
//
// A re-insert brings a pk back with the text the long lists still hold for
// it (it was not edited since the last build or merge), so the stale
// long-list copies it leaves carry no term the document lacks.
func TestKeyCeilingBoundsEveryLiveScore(t *testing.T) {
	for _, name := range []string{"Chunk", "Chunk-TermScore"} {
		t.Run(name, func(t *testing.T) { checkKeyCeilings(t, name) })
	}
}

func checkKeyCeilings(t *testing.T, name string) {
	vocab := []string{"ant", "bee", "cat", "dog", "eel", "fox"}
	queries := [][]string{{"ant"}, {"bee", "cat"}, {"dog", "eel"}, {"ant", "fox"}, {"cat", "dog", "eel"}}
	rng := rand.New(rand.NewSource(52))
	words := func() []string {
		var out []string
		for _, i := range rng.Perm(len(vocab))[:3] {
			out = append(out, vocab[i])
		}
		return out
	}
	const nDocs, maxScore = 150, 1000
	corpus := newTestCorpus()
	for i := 1; i <= nDocs; i++ {
		corpus.add(DocID(i), float64(1+rng.Intn(maxScore)), strings.Join(words(), " "))
	}
	m := buildMethod(t, name, allConstructors()[name], corpus)
	o := newOracle(corpus)
	nextDoc := DocID(nDocs + 1)

	// The model: the key each live document is filed under, and the
	// documents edited since the last build or merge.
	listKey, edited := map[DocID]float64{}, map[DocID]bool{}
	rekey := func() {
		tm := m.(*thresholdMethod)
		clear(edited)
		for doc, score := range o.scores {
			if !o.deleted[doc] {
				listKey[doc] = tm.keyOf(score)
			}
		}
	}
	rekey()
	live := func() DocID {
		for {
			if doc := DocID(1 + rng.Intn(int(nextDoc-1))); !o.deleted[doc] {
				return doc
			}
		}
	}

	// bounds fails the test unless the ceilings b keeps bound every live
	// document's score at its list key and stay below the paper's bound.
	bounds := func(step int, what string, b *base) {
		t.Helper()
		if len(b.ceil) != b.chunks.NumChunks() {
			t.Fatalf("step %d: %s: %d ceilings for %d chunks", step, what, len(b.ceil), b.chunks.NumChunks())
		}
		for doc, score := range o.scores {
			if c := b.ceil[b.ceil.slot(listKey[doc])]; !o.deleted[doc] && score > c {
				t.Fatalf("step %d: %s: document %d at key %g has score %g above the key's ceiling %g", step, what, doc, listKey[doc], score, c)
			}
		}
		for i, c := range b.ceil {
			if ub := b.chunks.UpperBound(int32(i + 2)); !math.IsInf(ub, 1) && c >= ub {
				t.Fatalf("step %d: %s: ceiling %g of chunk %d reaches the upper bound %g of chunk %d", step, what, c, i+1, ub, i+2)
			}
		}
	}

	var crossings, rises, falls, inserts, deletes, reinserts, edits, merges, reopens int
	for step := 0; step < 40; step++ {
		switch step % 10 {
		case 4:
			if err := m.MergeShortLists(); err != nil {
				t.Fatalf("step %d: MergeShortLists: %v", step, err)
			}
			rekey()
			merges++
		case 7:
			restored, err := Restore(baseOf(m).cfg, m.State())
			if err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
			restored.SetSource(corpus)
			m = restored
			reopens++
		default:
			tm := m.(*thresholdMethod)
			var batch []Update
			var deleted []DocID
			for n := 1 + rng.Intn(12); n > 0; n-- {
				switch op := rng.Intn(20); {
				case op < 10:
					doc := live()
					var score float64
					switch rng.Intn(3) {
					case 0: // a jump past most documents' threshold
						score = float64(maxScore + rng.Intn(2*maxScore))
					case 1: // a drift
						score = max(0, o.scores[doc]+float64(rng.Intn(41)-20))
					default: // anywhere in the build's range, often down
						score = float64(rng.Intn(maxScore))
					}
					batch = append(batch, Update{Op: ScoreOp, Doc: doc, Score: score})
					switch {
					case score == o.scores[doc]:
						continue
					case tm.keyOf(score) > tm.order.thresholdValueOf(listKey[doc]):
						listKey[doc] = tm.keyOf(score)
						crossings++
					case score > o.scores[doc]:
						rises++
					default:
						falls++
					}
					o.scores[doc] = score
				case op < 12:
					doc, tokens, score := nextDoc, words(), float64(1+rng.Intn(2*maxScore))
					nextDoc++
					batch = append(batch, Update{Op: InsertOp, Doc: doc, Tokens: tokens, Score: score})
					corpus.docs[doc], corpus.scores[doc] = tokens, score
					o.setTokens(doc, tokens)
					o.scores[doc], listKey[doc] = score, tm.keyOf(score)
					inserts++
				case op < 14:
					doc := live()
					batch = append(batch, Update{Op: DeleteOp, Doc: doc, OldTokens: corpus.docs[doc]})
					o.deleted[doc] = true
					deleted = append(deleted, doc)
					deletes++
				case op < 16 && len(deleted) > 0:
					// The pk comes back in the same batch, at a new score.
					doc := deleted[len(deleted)-1]
					if edited[doc] {
						continue
					}
					deleted = deleted[:len(deleted)-1]
					score := float64(1 + rng.Intn(2*maxScore))
					batch = append(batch, Update{Op: InsertOp, Doc: doc, Tokens: corpus.docs[doc], Score: score})
					corpus.scores[doc] = score
					o.deleted[doc] = false
					o.scores[doc], listKey[doc] = score, tm.keyOf(score)
					reinserts++
				default:
					doc := live()
					old := corpus.docs[doc]
					next := slices.Clone(old)
					for {
						w := vocab[rng.Intn(len(vocab))]
						if !slices.Contains(old, w) {
							next[rng.Intn(len(next))] = w
							break
						}
					}
					batch = append(batch, Update{Op: ContentOp, Doc: doc, OldTokens: old, NewTokens: next})
					corpus.docs[doc] = next
					o.setTokens(doc, next)
					edited[doc] = true
					edits++
				}
			}
			if err := m.ApplyUpdates(batch); err != nil {
				t.Fatalf("step %d: ApplyUpdates: %v", step, err)
			}
		}

		b := baseOf(m)
		bounds(step, "running", b)
		if s := b.published.Load(); !slices.Equal(s.ceil, b.ceil.upTo()) {
			t.Fatalf("step %d: published ceilings %v, want the running maximum of %v", step, s.ceil, b.ceil)
		}
		restored, err := Restore(b.cfg, m.State())
		if err != nil {
			t.Fatalf("step %d: Restore: %v", step, err)
		}
		derived := baseOf(restored)
		bounds(step, "re-derived", derived)
		for i, c := range derived.ceil {
			if c > b.ceil[i] {
				t.Fatalf("step %d: re-derived ceiling %g of chunk %d above the running %g", step, c, i+1, b.ceil[i])
			}
		}

		for _, terms := range queries {
			for _, k := range []int{1, 5, 40, 500} {
				for _, disjunctive := range []bool{false, true} {
					for _, combined := range []bool{false, true} {
						if combined && (name != "Chunk-TermScore" || k == 1 || k == 40) {
							continue
						}
						q := Query{Terms: terms, K: k, Disjunctive: disjunctive, WithTermScores: combined}
						var idfs []float64
						if combined {
							idfs = o.idfs(terms)
						}
						res, err := m.TopK(q)
						if err != nil {
							t.Fatalf("step %d %+v: %v", step, q, err)
						}
						if want := o.rankedPairs(terms, k, disjunctive, idfs); !slices.Equal(res.Results, want) {
							t.Fatalf("step %d %+v:\n got %v\nwant %v", step, q, res.Results, want)
						}
					}
				}
			}
		}
	}
	if crossings == 0 || rises == 0 || falls == 0 || inserts == 0 || deletes == 0 || reinserts == 0 || edits == 0 || merges == 0 || reopens == 0 {
		t.Fatalf("the trace missed a case: %d crossings, %d non-crossing rises, %d non-crossing falls, %d inserts, %d deletes, %d re-inserts, %d edits, %d merges, %d reopens",
			crossings, rises, falls, inserts, deletes, reinserts, edits, merges, reopens)
	}
	t.Logf("%d crossings, %d non-crossing rises, %d non-crossing falls, %d inserts, %d deletes, %d re-inserts, %d edits, %d merges, %d reopens",
		crossings, rises, falls, inserts, deletes, reinserts, edits, merges, reopens)
}
