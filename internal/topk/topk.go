package topk

import (
	"sort"
)

// Result is one ranked document.
type Result struct {
	Doc   int64
	Score float64
}

// Heap keeps the k highest-scoring documents seen so far.  Ties are broken
// in favour of the smaller document ID so results are deterministic.  Above
// mapAboveK a doc → slot map is maintained incrementally on every heap
// movement, so Add costs O(log k) even at large k; at or below it a document
// is found by scanning the ≤ k entries, which is cheaper than hashing and
// spares every query the map.
type Heap struct {
	k       int
	entries []Result
	seen    map[int64]int // doc -> index in entries; nil at k <= mapAboveK
}

// mapAboveK is the largest k whose heap finds documents by a linear scan.
// It is the measured crossover on real queries (BenchmarkFigure8_VaryK at k
// from 24 to 64, each lookup forced in turn): at k = 24 the scan is as fast
// or faster for every method, at k = 32 the two are within 6 % either way,
// and from k = 56 the map wins for Chunk and Score-Threshold while ID is
// even.  Every offer scans, rejected ones too, so the scan's cost grows with
// the offers a query makes as well as with k.
const mapAboveK = 32

// New returns a heap that retains the best k results.  k must be positive.
func New(k int) *Heap {
	if k < 1 {
		k = 1
	}
	if k <= mapAboveK {
		return &Heap{k: k, entries: make([]Result, 0, k)}
	}
	return &Heap{k: k, seen: make(map[int64]int, k)}
}

// find returns doc's index in entries, or -1.
func (h *Heap) find(doc int64) int {
	if h.seen != nil {
		if i, ok := h.seen[doc]; ok {
			return i
		}
		return -1
	}
	for i := range h.entries {
		if h.entries[i].Doc == doc {
			return i
		}
	}
	return -1
}

// K returns the requested result count.
func (h *Heap) K() int { return h.k }

// Len reports how many results are currently held (≤ k).
func (h *Heap) Len() int { return len(h.entries) }

// Full reports whether k results have been collected.
func (h *Heap) Full() bool { return len(h.entries) >= h.k }

// MinScore returns the lowest score among the held results.  It returns
// negative infinity semantics via ok=false when the heap is not yet full,
// because the stopping rules in Algorithms 2 and 3 only apply once k
// results exist.
func (h *Heap) MinScore() (float64, bool) {
	if !h.Full() {
		return 0, false
	}
	return h.entries[0].Score, true
}

// less orders the min-heap so the root is the weakest retained result;
// larger doc IDs are "worse" so they are evicted first on score ties.
func (h *Heap) less(i, j int) bool {
	if h.entries[i].Score != h.entries[j].Score {
		return h.entries[i].Score < h.entries[j].Score
	}
	return h.entries[i].Doc > h.entries[j].Doc
}

func (h *Heap) swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	if h.seen != nil {
		h.seen[h.entries[i].Doc] = i
		h.seen[h.entries[j].Doc] = j
	}
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.entries) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.entries) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// Admits reports whether an offer of doc at score could change the retained
// results: the heap is not full, or the offer beats the weakest retained
// result (a higher score, or an equal score and a smaller document ID).  When
// Admits is false, Add(doc, score) changes nothing — also for a document
// already held, whose retained score is then at least score — so a caller
// may drop the offer, and skip whatever work deciding it would take, without
// changing the answer.
func (h *Heap) Admits(doc int64, score float64) bool {
	if !h.Full() {
		return true
	}
	worst := h.entries[0]
	return score > worst.Score || (score == worst.Score && doc < worst.Doc)
}

// Add offers a document with its current score.  If the document is already
// present its score is updated to the maximum of the two offers (a document
// can be encountered through both its short-list and long-list postings).
// Add reports whether the document is now among the retained results.
func (h *Heap) Add(doc int64, score float64) bool {
	if idx := h.find(doc); idx >= 0 {
		if score > h.entries[idx].Score {
			h.entries[idx].Score = score
			// A higher score moves the entry away from the root.
			h.down(idx)
		}
		return true
	}
	if len(h.entries) < h.k {
		h.entries = append(h.entries, Result{Doc: doc, Score: score})
		i := len(h.entries) - 1
		if h.seen != nil {
			h.seen[doc] = i
		}
		h.up(i)
		return true
	}
	if !h.Admits(doc, score) {
		return false
	}
	worst := h.entries[0]
	h.entries[0] = Result{Doc: doc, Score: score}
	if h.seen != nil {
		delete(h.seen, worst.Doc)
		h.seen[doc] = 0
	}
	h.down(0)
	return true
}

// Contains reports whether doc is currently retained.
func (h *Heap) Contains(doc int64) bool { return h.find(doc) >= 0 }

// Results returns the retained documents ordered by descending score (ties
// by ascending document ID).  The heap remains usable afterwards.
func (h *Heap) Results() []Result {
	out := append([]Result(nil), h.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}
