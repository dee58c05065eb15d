package postings

import (
	"cmp"
	"slices"
)

// This file implements the two combinators the query algorithms are built
// from:
//
//   - Overlay — lays a term's short list over its long list, the
//     "SL(ti) ∪ LL(ti)" of Algorithms 2 and 3, in (SortKey descending, Doc
//     ascending) order: a short-list posting replaces the long-list posting
//     at its position, and a REM (Appendix A.1) cancels the position.
//   - Merge — advances the per-term streams of a query in lock step and
//     returns each position that at least need streams hold, with the set of
//     terms whose stream holds it.  It counts the postings it passes and asks
//     the caller's stopping rule as it goes, so one loop serves conjunctive
//     and disjunctive queries, Algorithm 3 and the ID family's full scan; a
//     conjunctive merge leapfrogs the streams that can seek (SeekDoc).  A
//     query has a handful of terms, so each position is found by a linear
//     pass over the heads; there is no heap.
//
// Both run on the block-at-a-time protocol: they pull batches from their
// inputs into pooled scratch buffers and merge directly out of those buffers
// (no virtual call per posting); Overlay emits whole batches downstream.

// Less orders entries by descending SortKey and then ascending Doc, which is
// the processing order of every score- or chunk-ordered list in the paper.
func Less(a, b Entry) bool {
	if a.SortKey != b.SortKey {
		return a.SortKey > b.SortKey
	}
	return a.Doc < b.Doc
}

// SamePosition reports whether two entries occupy the same (SortKey, Doc)
// position in the processing order.
func SamePosition(a, b Entry) bool {
	return a.SortKey == b.SortKey && a.Doc == b.Doc
}

// mergeHead is one buffered input of a combinator.
type mergeHead struct {
	src BatchIterator
	// seeker is src when a conjunctive Merge may leapfrog it, else nil.
	seeker interface{ SeekDoc(doc DocID) error }
	buf    *[]Entry
	pos    int
	n      int
	done   bool
}

// cur returns the head's current entry; only valid when pos < n.
func (h *mergeHead) cur() *Entry { return &(*h.buf)[h.pos] }

// step moves the head past its current entry; pos < n must hold.
func (h *mergeHead) step() error {
	if h.pos++; h.pos < h.n {
		return nil
	}
	return h.refill()
}

// seekDoc moves the head to its first entry with Doc >= doc without passing
// the ones before it: within the buffered batch by bisection, past it
// through the source's SeekDoc, which skips whole blocks unread.  The
// head's source must have SeekDoc and hold one sort key, as the ID layouts
// do; pos < n must hold.
func (h *mergeHead) seekDoc(doc DocID) error {
	buf := (*h.buf)[h.pos:h.n]
	i, _ := slices.BinarySearchFunc(buf, doc, func(e Entry, d DocID) int { return cmp.Compare(e.Doc, d) })
	if h.pos += i; h.pos < h.n {
		return nil
	}
	if err := h.seeker.SeekDoc(doc); err != nil {
		return err
	}
	return h.refill()
}

// refill fetches the next batch from the head's source.  After a call either
// pos < n holds or the head is done and its scratch buffer returned.
func (h *mergeHead) refill() error {
	if h.done {
		return nil
	}
	if h.buf == nil {
		h.buf = getEntryBuf()
	}
	n, err := h.src.NextBatch(*h.buf)
	if err != nil {
		return err
	}
	h.pos, h.n = 0, n
	if n == 0 {
		h.done = true
		putEntryBuf(h.buf)
		h.buf = nil
	}
	return nil
}

// close releases the head's scratch buffer and propagates to its source.
func (h *mergeHead) close() {
	if h.buf != nil {
		putEntryBuf(h.buf)
		h.buf = nil
	}
	h.done = true
	h.n, h.pos = 0, 0
	CloseIterator(h.src)
}

// Overlay is one term's query stream: its short list laid over its long
// list, both in (SortKey desc, Doc asc) order, each holding a position at
// most once.  At a position both hold, the short-list posting stands for
// the term (its term weight is the fresher); a short-list REM cancels the
// position, and is itself never emitted.  Runs of long-list postings that
// sort before the short list's next posting are copied out in bulk.
type Overlay struct {
	short, long mergeHead
	init        bool
}

// NewOverlay returns short laid over long.
func NewOverlay(short, long BatchIterator) *Overlay {
	return &Overlay{short: mergeHead{src: short}, long: mergeHead{src: long}}
}

// NextBatch implements BatchIterator.
func (o *Overlay) NextBatch(out []Entry) (int, error) {
	s, l := &o.short, &o.long
	if !o.init {
		if err := s.refill(); err != nil {
			return 0, err
		}
		if err := l.refill(); err != nil {
			return 0, err
		}
		o.init = true
	}
	n := 0
	for n < len(out) {
		if s.done {
			if l.done {
				break
			}
			c := copy(out[n:], (*l.buf)[l.pos:l.n])
			n += c
			if l.pos += c; l.pos >= l.n {
				if err := l.refill(); err != nil {
					return n, err
				}
			}
			continue
		}
		e := *s.cur()
		if !l.done {
			run := (*l.buf)[l.pos:l.n]
			c := 0
			for c < len(run) && n+c < len(out) && Less(run[c], e) {
				c++
			}
			n += copy(out[n:], run[:c])
			if l.pos += c; l.pos >= l.n {
				if err := l.refill(); err != nil {
					return n, err
				}
				continue
			}
			if n == len(out) {
				break
			}
			if SamePosition(*l.cur(), e) {
				if err := l.step(); err != nil {
					return n, err
				}
			}
		}
		if err := s.step(); err != nil {
			return n, err
		}
		if e.Op != OpRem {
			out[n] = e
			n++
		}
	}
	return n, nil
}

// Close implements Closer.
func (o *Overlay) Close() {
	o.short.close()
	o.long.close()
	o.init = true
}

// Group is the set of per-term entries found at one (SortKey, Doc) position.
//
// The Group Merge.Next returns, with its Entries and Present slices, is the
// merge's own and is overwritten by the next call; callers must copy out
// anything they retain past it.
type Group struct {
	Doc DocID
	// SortKey of the position (list score or chunk ID).
	SortKey float64
	// Entries[i] is the posting from stream i; Present[i] reports whether
	// stream i had a posting at this position.
	Entries []Entry
	Present []bool
	// Count is the number of streams present.
	Count int
}

// ContainsAll reports whether every stream contributed a posting.
func (g *Group) ContainsAll() bool { return g.Count == len(g.Present) }

// Merge merges k per-term streams, each in (SortKey desc, Doc asc) order.
// It passes their positions in that order and returns, as a Group, each one
// at least need of the streams hold: need = 1 is a disjunctive query's and
// Algorithm 3's merge, need = k a conjunctive query's.  The positions it
// passes without returning them it only counts and stop-checks, which is
// all a scan does with them:
//
//   - Scanned sums, over every position passed, the streams holding a
//     posting there (the position's Group.Count), and counts the posting
//     each seek (below) leaves.
//   - Next's stop function is the scan's early-termination test, and the
//     position where it first reports true ends the merge (counted, and with
//     Stopped set).  The test depends on the caller's heap and the position's
//     sort key, and the heap changes only at a position Next returns: so
//     Next asks it only at the first position of a call and at each position
//     whose sort key differs from the previous one's, and stops at the same
//     position a test at every position would.  A nil stop never stops.
//
// With need = k the merge ends as soon as any stream ends, since no further
// position can be held by all of them, and it leapfrogs: a head whose
// source has SeekDoc and sits at the sort key of the latest head (the one at
// the furthest position) jumps straight to that head's document.  Only the
// posting it leaves counts; the ones it skips are neither counted nor, when
// the source's skip headers rule out their blocks, read.  A seeking source
// must hold one sort key, as the ID layouts do.  The stop test is not asked
// at the positions a seek skips; no ID-family scan has a stopping rule.
//
// A stream may repeat a position; the repeats fold into one, the last one
// supplying the stream's entry.
type Merge struct {
	heads []mergeHead
	need  int
	seeks bool // some head may leapfrog
	g     Group
	init  bool
	key   float64 // sort key of the last position passed
	// Scanned is the postings the merge has passed, counted as above.
	Scanned int
	// Stopped reports that the stop function ended the merge.
	Stopped bool
}

// NewMerge returns a merge of the given streams that returns the positions
// at least need of them hold.
func NewMerge(need int, streams ...BatchIterator) *Merge {
	m := &Merge{}
	m.Reset(need, streams...)
	return m
}

// Reset makes m what NewMerge(need, streams...) returns, reusing the
// buffers m has grown, so a caller that keeps one Merge per query context
// allocates none per scan.  It drops m's references to the streams it
// merged before, so Reset(0) leaves m holding none.  The previous merge
// must have been closed.
func (m *Merge) Reset(need int, streams ...BatchIterator) {
	n := len(streams)
	heads, entries, present := m.heads[:cap(m.heads)], m.g.Entries, m.g.Present
	clear(heads)
	if cap(heads) < n {
		heads, entries, present = make([]mergeHead, n), make([]Entry, n), make([]bool, n)
	}
	*m = Merge{heads: heads[:n], need: need, g: Group{Entries: entries[:n], Present: present[:n]}}
	for i, src := range streams {
		h := &m.heads[i]
		h.src = src
		if need == n {
			h.seeker, _ = src.(interface{ SeekDoc(doc DocID) error })
			m.seeks = m.seeks || h.seeker != nil
		}
	}
}

// Next returns the next position at least need streams hold, or ok=false
// once the merge has ended: the streams are exhausted, with need = k one of
// them is, or stop has ended it.  The group is reused; see the Group docs.
func (m *Merge) Next(stop func(sortKey float64) bool) (*Group, bool, error) {
	if !m.init {
		for i := range m.heads {
			if err := m.heads[i].refill(); err != nil {
				return nil, false, err
			}
		}
		m.init = true
	}
	all := m.need == len(m.heads)
	for fresh := true; !m.Stopped; fresh = false {
		if m.seeks {
			if err := m.leapfrog(); err != nil {
				return nil, false, err
			}
		}
		// One pass finds the first position.  An exhausted head has pos ==
		// n == 0; every head before first sits at a later position.
		first := -1
		var top *Entry
		for i := range m.heads {
			h := &m.heads[i]
			if h.pos >= h.n {
				if all {
					return nil, false, nil
				}
				continue
			}
			if e := h.cur(); first < 0 || e.SortKey > top.SortKey || e.SortKey == top.SortKey && e.Doc < top.Doc {
				first, top = i, e
			}
		}
		if first < 0 {
			return nil, false, nil
		}
		// A second steps every head at the position past its entries there,
		// the last one standing for the stream.
		key, doc := top.SortKey, top.Doc
		g, count := &m.g, 0
		clear(g.Present[:first])
		for i := first; i < len(m.heads); i++ {
			h := &m.heads[i]
			g.Present[i] = false
			for h.pos < h.n {
				e := h.cur()
				if e.SortKey != key || e.Doc != doc {
					break
				}
				g.Entries[i] = *e
				if !g.Present[i] {
					g.Present[i] = true
					count++
				}
				if err := h.step(); err != nil {
					return nil, false, err
				}
			}
		}
		m.Scanned += count
		if stop != nil && (fresh || key != m.key) && stop(key) {
			m.Stopped = true
			return nil, false, nil
		}
		m.key = key
		if count >= m.need {
			g.Doc, g.SortKey, g.Count = doc, key, count
			return g, true, nil
		}
	}
	return nil, false, nil
}

// leapfrog seeks every head that can, and sits behind the latest head at
// its sort key, to the latest head's document, until none does, counting
// the posting each seek leaves.  A head that lands past that document is
// the new latest head.  An exhausted head ends the pass; Next then ends the
// merge.
func (m *Merge) leapfrog() error {
	for {
		var key float64
		var doc DocID
		for i := range m.heads {
			h := &m.heads[i]
			if h.pos >= h.n {
				return nil
			}
			if e := h.cur(); i == 0 || e.SortKey < key || e.SortKey == key && e.Doc > doc {
				key, doc = e.SortKey, e.Doc
			}
		}
		moved := false
		for i := range m.heads {
			h := &m.heads[i]
			if e := h.cur(); h.seeker != nil && e.SortKey == key && e.Doc < doc {
				m.Scanned++
				if err := h.seekDoc(doc); err != nil {
					return err
				}
				if h.done {
					return nil
				}
				moved = true
			}
		}
		if !moved {
			return nil
		}
	}
}

// Close implements Closer.
func (m *Merge) Close() {
	for i := range m.heads {
		m.heads[i].close()
	}
	m.init = true
}
