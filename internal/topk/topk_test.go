package topk

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestBasicTopK(t *testing.T) {
	h := New(3)
	h.Add(1, 10)
	h.Add(2, 50)
	h.Add(3, 30)
	h.Add(4, 20)
	h.Add(5, 40)
	got := h.Results()
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	wantDocs := []int64{2, 5, 3}
	for i, r := range got {
		if r.Doc != wantDocs[i] {
			t.Errorf("result %d = doc %d, want %d", i, r.Doc, wantDocs[i])
		}
	}
}

func TestKOfOneMinimum(t *testing.T) {
	h := New(0)
	if h.K() != 1 {
		t.Errorf("K() = %d, want clamp to 1", h.K())
	}
	h.Add(9, 1)
	h.Add(10, 2)
	got := h.Results()
	if len(got) != 1 || got[0].Doc != 10 {
		t.Errorf("Results = %v, want just doc 10", got)
	}
}

func TestMinScoreOnlyWhenFull(t *testing.T) {
	h := New(2)
	if _, ok := h.MinScore(); ok {
		t.Error("MinScore reported a value on an empty heap")
	}
	h.Add(1, 5)
	if _, ok := h.MinScore(); ok {
		t.Error("MinScore reported a value before the heap was full")
	}
	h.Add(2, 9)
	min, ok := h.MinScore()
	if !ok || min != 5 {
		t.Errorf("MinScore = %v, %v; want 5, true", min, ok)
	}
	h.Add(3, 7)
	min, _ = h.MinScore()
	if min != 7 {
		t.Errorf("MinScore after displacement = %v, want 7", min)
	}
}

func TestDuplicateDocKeepsBestScore(t *testing.T) {
	h := New(2)
	h.Add(1, 10)
	h.Add(1, 25)
	h.Add(1, 5)
	got := h.Results()
	if len(got) != 1 {
		t.Fatalf("duplicate adds produced %d results, want 1", len(got))
	}
	if got[0].Score != 25 {
		t.Errorf("score = %g, want best offer 25", got[0].Score)
	}
}

func TestTieBreakByDocID(t *testing.T) {
	h := New(2)
	h.Add(5, 10)
	h.Add(3, 10)
	h.Add(9, 10)
	got := h.Results()
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	if got[0].Doc != 3 || got[1].Doc != 5 {
		t.Errorf("tie break kept docs %d, %d; want 3, 5", got[0].Doc, got[1].Doc)
	}
}

func TestContains(t *testing.T) {
	h := New(2)
	h.Add(1, 10)
	h.Add(2, 20)
	h.Add(3, 30) // evicts doc 1
	if h.Contains(1) {
		t.Error("evicted doc still reported as contained")
	}
	if !h.Contains(2) || !h.Contains(3) {
		t.Error("retained docs not reported as contained")
	}
}

func TestAgainstSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		k := rng.Intn(20) + 1
		type pair struct {
			doc   int64
			score float64
		}
		var all []pair
		h := New(k)
		for i := 0; i < n; i++ {
			p := pair{doc: int64(i), score: float64(rng.Intn(1000))}
			all = append(all, p)
			h.Add(p.doc, p.score)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].score != all[j].score {
				return all[i].score > all[j].score
			}
			return all[i].doc < all[j].doc
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := h.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Doc != want[i].doc || got[i].Score != want[i].score {
				t.Fatalf("trial %d result %d = (%d, %g), want (%d, %g)",
					trial, i, got[i].Doc, got[i].Score, want[i].doc, want[i].score)
			}
		}
	}
}

// TestRepeatedOffersMatchSortReference checks the heap on both sides of the
// linear-scan/map boundary against a sort reference — each document's best
// offer, sorted by (score desc, doc asc), first k — while documents are
// offered again at lower, equal and higher scores, including after being
// evicted.
func TestRepeatedOffersMatchSortReference(t *testing.T) {
	for _, k := range []int{1, 10, mapAboveK, mapAboveK + 1, 1000} {
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 20; trial++ {
			h := New(k)
			best := map[int64]float64{}
			nDocs := 1 + rng.Intn(3*k)
			for i := 0; i < 4*nDocs; i++ {
				doc := int64(rng.Intn(nDocs))
				score := float64(rng.Intn(50))
				if prev, ok := best[doc]; ok {
					score = prev + float64(rng.Intn(3)-1) // lower, equal or higher
				}
				h.Add(doc, score)
				if prev, ok := best[doc]; !ok || score > prev {
					best[doc] = score
				}
			}
			want := make([]Result, 0, len(best))
			for doc, score := range best {
				want = append(want, Result{Doc: doc, Score: score})
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Score != want[j].Score {
					return want[i].Score > want[j].Score
				}
				return want[i].Doc < want[j].Doc
			})
			want = want[:min(k, len(want))]
			got := h.Results()
			if len(got) != len(want) {
				t.Fatalf("k=%d trial %d: %d results, want %d", k, trial, len(got), len(want))
			}
			kept := map[int64]bool{}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d trial %d: result %d = %+v, want %+v", k, trial, i, got[i], want[i])
				}
				kept[want[i].Doc] = true
			}
			for doc := range best {
				if h.Contains(doc) != kept[doc] {
					t.Fatalf("k=%d trial %d: Contains(%d) = %v, want %v", k, trial, doc, h.Contains(doc), kept[doc])
				}
			}
			if min, full := h.MinScore(); full != (len(want) == k) || full && min != want[k-1].Score {
				t.Fatalf("k=%d trial %d: MinScore = %g, %v", k, trial, min, full)
			}
		}
	}
}

// offerChecked offers (doc, score) to h and fails unless the offer honours
// Admits: a refused offer leaves the held results exactly as they were (so
// Results too), and for a document not held Add reports exactly what Admits
// predicted.
func offerChecked(tb testing.TB, h *Heap, doc int64, score float64) {
	tb.Helper()
	admits, held := h.Admits(doc, score), h.Contains(doc)
	var before []Result
	if !admits {
		before = slices.Clone(h.entries)
	}
	if added := h.Add(doc, score); !held && added != admits {
		tb.Fatalf("Add(%d, %g) = %v, Admits said %v", doc, score, added, admits)
	}
	if !admits && !slices.Equal(h.entries, before) {
		tb.Fatalf("Add(%d, %g) changed %v to %v although Admits refused it", doc, score, before, h.entries)
	}
}

// bestOffers is the sort reference for a heap: each document's best offer,
// ordered by score descending then document ascending, the first k.
func bestOffers(best map[int64]float64, k int) []Result {
	want := make([]Result, 0, len(best))
	for doc, score := range best {
		want = append(want, Result{Doc: doc, Score: score})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Score != want[j].Score {
			return want[i].Score > want[j].Score
		}
		return want[i].Doc < want[j].Doc
	})
	return want[:min(k, len(want))]
}

// TestAdmitsRefusalIsANoOp checks Admits against Add on both sides of the
// scan/map boundary: whenever Admits refuses an offer, Add leaves the results
// unchanged.  The offers include re-offers of held documents at lower, equal
// and higher scores, and exact ties with the weakest result by documents on
// both sides of it.
func TestAdmitsRefusalIsANoOp(t *testing.T) {
	for _, k := range []int{1, 10, mapAboveK, mapAboveK + 1, 1000} {
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 10; trial++ {
			h := New(k)
			best := map[int64]float64{}
			nDocs := 1 + rng.Intn(3*k)
			for i := 0; i < 4*nDocs; i++ {
				doc, score := int64(rng.Intn(nDocs)), float64(rng.Intn(50))
				switch {
				case rng.Intn(4) == 0 && h.Full():
					// Tie the weakest result, from just below or above its ID.
					worst := h.entries[0]
					doc, score = worst.Doc+int64(rng.Intn(5)-2), worst.Score
				case rng.Intn(3) == 0 && h.Len() > 0:
					// Re-offer a held document.
					held := h.entries[rng.Intn(h.Len())]
					doc, score = held.Doc, held.Score+float64(rng.Intn(3)-1)
				}
				offerChecked(t, h, doc, score)
				if prev, ok := best[doc]; !ok || score > prev {
					best[doc] = score
				}
			}
			if got, want := h.Results(), bestOffers(best, k); !slices.Equal(got, want) {
				t.Fatalf("k=%d trial %d: results %v, want %v", k, trial, got, want)
			}
		}
	}
}

// FuzzHeapAdmits runs arbitrary offer sequences through offerChecked and
// compares the final results with the sort reference.  The first byte picks
// k; every following pair of bytes is one offer (a document of 64, a score of
// 16, so re-offers and ties are common).
func FuzzHeapAdmits(f *testing.F) {
	f.Add([]byte{3, 1, 5, 2, 5, 3, 5, 1, 6, 0, 4})
	f.Add([]byte{0, 9, 9, 8, 9, 7, 9, 9, 10})
	f.Add([]byte{33, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%40
		if data[0] >= 250 {
			k = 1000
		}
		h := New(k)
		best := map[int64]float64{}
		for i := 1; i+1 < len(data); i += 2 {
			doc, score := int64(data[i]%64), float64(data[i+1]%16)
			offerChecked(t, h, doc, score)
			if prev, ok := best[doc]; !ok || score > prev {
				best[doc] = score
			}
		}
		if got, want := h.Results(), bestOffers(best, k); !slices.Equal(got, want) {
			t.Fatalf("k=%d: results %v, want %v", k, got, want)
		}
	})
}
