package index

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// shortDocs returns the documents whose published Score row has the
// short-list bit set.
func shortDocs(t *testing.T, b *base) []DocID {
	t.Helper()
	var out []DocID
	if err := b.score.ForEach(func(doc DocID, r docRow) bool {
		if r.short {
			out = append(out, doc)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShortListBitLifecycle checks the Score row's short-list bit against a
// model of Algorithm 1's rule on every threshold kind: a document has
// short-list postings once a score update lifts its list key past
// thresholdValueOf(listKey) or once it is inserted, keeps them across any
// later update, and loses them when it is deleted or the short lists are
// merged.  Random batches of threshold-crossing and non-crossing score
// updates, inserts, deletes and content edits run between merges and State
// → Restore reopens; after every step each document's bit, deleted flag and
// (for a live document) list key must match the model, and
// every query must match the brute-force oracle.  The queries are what
// notice a resolver that trusts a moved document's stale long-list copy:
// content edits keep removing query terms from moved documents, which only
// the long lists still file under those terms, and a k above the document
// count makes every scan reach the stale copies.  Every document holds three
// distinct words, so an edit leaves the other terms' weights as they were
// and the oracle's combined scores stay exact.
func TestShortListBitLifecycle(t *testing.T) {
	for _, name := range []string{"Score-Threshold", "Chunk", "Chunk-TermScore"} {
		t.Run(name, func(t *testing.T) { checkShortListBit(t, name) })
	}
}

func checkShortListBit(t *testing.T, name string) {
	vocab := []string{"ant", "bee", "cat", "dog", "eel", "fox"}
	queries := [][]string{{"ant"}, {"bee", "cat"}, {"dog", "eel"}, {"ant", "fox"}, {"cat", "dog", "eel"}}
	rng := rand.New(rand.NewSource(48))
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

	// The model: the key a live document's postings are filed under, and
	// whether they are in the short lists.
	listKey, moved := map[DocID]float64{}, map[DocID]bool{}
	rekey := func() {
		tm := m.(*thresholdMethod)
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
	var movedDocs []DocID
	pickMoved := func() (DocID, bool) {
		movedDocs = movedDocs[:0]
		for doc, ok := range moved {
			if ok {
				movedDocs = append(movedDocs, doc)
			}
		}
		if len(movedDocs) == 0 {
			return 0, false
		}
		slices.Sort(movedDocs)
		return movedDocs[rng.Intn(len(movedDocs))], true
	}

	var crossings, keeps, inserts, deletes, movedEdits, merges, reopens int
	for step := 0; step < 40; step++ {
		switch step % 10 {
		case 4:
			if err := m.MergeShortLists(); err != nil {
				t.Fatalf("step %d: MergeShortLists: %v", step, err)
			}
			clear(moved)
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
			for n := 1 + rng.Intn(12); n > 0; n-- {
				switch op := rng.Intn(20); {
				case op < 10:
					// Half of them on a moved document, which must keep its bit
					// whether or not the update crosses again.
					doc, ok := pickMoved()
					if !ok || rng.Intn(2) == 0 {
						doc = live()
					}
					var score float64
					switch rng.Intn(3) {
					case 0: // a jump past most documents' threshold
						score = float64(maxScore + rng.Intn(2*maxScore))
					case 1: // a drift
						score = max(0, o.scores[doc]+float64(rng.Intn(21)-10))
					default: // anywhere in the build's range, often down
						score = float64(rng.Intn(maxScore))
					}
					batch = append(batch, Update{Op: ScoreOp, Doc: doc, Score: score})
					if score == o.scores[doc] {
						continue
					}
					if key := tm.keyOf(score); key > tm.order.thresholdValueOf(listKey[doc]) {
						moved[doc], listKey[doc] = true, key
						crossings++
					} else if moved[doc] {
						keeps++
					}
					o.scores[doc] = score
				case op < 13:
					doc, tokens, score := nextDoc, words(), float64(1+rng.Intn(2*maxScore))
					nextDoc++
					batch = append(batch, Update{Op: InsertOp, Doc: doc, Tokens: tokens, Score: score})
					corpus.docs[doc], corpus.scores[doc] = tokens, score
					o.setTokens(doc, tokens)
					o.scores[doc] = score
					moved[doc], listKey[doc] = true, tm.keyOf(score)
					inserts++
				case op < 15:
					doc := live()
					batch = append(batch, Update{Op: DeleteOp, Doc: doc, OldTokens: corpus.docs[doc]})
					o.deleted[doc] = true
					delete(moved, doc)
					deletes++
				default:
					// Mostly a moved document: its stale long-list copy keeps
					// the term the edit removes.
					doc, ok := pickMoved()
					if !ok || rng.Intn(4) == 0 {
						doc = live()
					}
					old := corpus.docs[doc]
					edited := slices.Clone(old)
					for {
						w := vocab[rng.Intn(len(vocab))]
						if !slices.Contains(old, w) {
							edited[rng.Intn(len(edited))] = w
							break
						}
					}
					batch = append(batch, Update{Op: ContentOp, Doc: doc, OldTokens: old, NewTokens: edited})
					corpus.docs[doc] = edited
					o.setTokens(doc, edited)
					if moved[doc] {
						movedEdits++
					}
				}
			}
			if err := m.ApplyUpdates(batch); err != nil {
				t.Fatalf("step %d: ApplyUpdates: %v", step, err)
			}
		}

		s := baseOf(m).published.Load()
		for doc := DocID(1); doc < nextDoc; doc++ {
			r, ok, err := s.score.Get(doc)
			if err != nil || !ok {
				t.Fatalf("step %d: Score row of %d: %v, %v", step, doc, ok, err)
			}
			if r.short != moved[doc] || r.deleted != o.deleted[doc] {
				t.Fatalf("step %d: document %d has short=%v deleted=%v, want short=%v deleted=%v", step, doc, r.short, r.deleted, moved[doc], o.deleted[doc])
			}
			if !o.deleted[doc] && r.key != listKey[doc] {
				t.Fatalf("step %d: document %d's row = %+v, want key %g", step, doc, r, listKey[doc])
			}
		}
		for _, terms := range queries {
			for _, k := range []int{5, 40, 500} {
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
	if crossings == 0 || keeps == 0 || inserts == 0 || deletes == 0 || movedEdits == 0 || merges == 0 || reopens == 0 {
		t.Fatalf("the trace missed a case: %d crossings, %d updates of moved documents that keep the bit, %d inserts, %d deletes, %d edits of moved documents, %d merges, %d reopens",
			crossings, keeps, inserts, deletes, movedEdits, merges, reopens)
	}
	t.Logf("%d crossings, %d updates keeping the bit, %d inserts, %d deletes, %d edits of moved documents, %d merges, %d reopens",
		crossings, keeps, inserts, deletes, movedEdits, merges, reopens)
}

// TestScoreTableLoadsFull: every query resolves its candidates against the
// Score table, so a build packs its leaves to the tree's maximum fill rather
// than leaving room for updates that patch rows in place anyway.
func TestScoreTableLoadsFull(t *testing.T) {
	corpus := compressionCorpus(3000, 20, 4, 9)
	for name, ctor := range allConstructors() {
		m := buildMethod(t, name, ctor, corpus)
		leaves, used, err := baseOf(m).score.tree.LeafStats()
		if err != nil {
			t.Fatal(err)
		}
		page := baseOf(m).cfg.Pool.PageSize()
		if fill := float64(used) / float64(leaves*page); fill < 0.85 {
			t.Errorf("%s: %d Score-table leaves %.2f full, want >= 0.85", name, leaves, fill)
		}
	}
}
