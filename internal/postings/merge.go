package postings

// This file implements the iterator combinators the query algorithms are
// built from:
//
//   - Union       — merges the short and long list of one term into a single
//     stream in (SortKey descending, Doc ascending) order, the
//     "SL(ti) ∪ LL(ti)" of Algorithms 2 and 3.
//   - CollapseOps — applies ADD/REM short-list postings produced by content
//     updates (Appendix A.1) to the merged stream.
//   - GroupMerger — advances the per-term streams of a multi-keyword query in
//     lock step, yielding, for each (SortKey, Doc) position, the set of query
//     terms whose stream contains that document there.  Disjunctive queries
//     accept every group, Algorithm 3 sorts them into candidates and its
//     remainList.  A query has a handful of terms, so the merger finds each
//     position with a linear pass over its heads; there is no heap.
//   - Conjunction — the same lock-step merge for a conjunctive query, which
//     yields a group only where every stream has a posting and counts and
//     stop-checks the positions it passes by itself.
//
// All four run on the block-at-a-time protocol: they pull batches from
// their inputs into pooled scratch buffers, merge directly out of those
// buffers (no virtual call per posting), and — for Union and CollapseOps —
// emit whole batches downstream.

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

// mergeHead is one buffered input of a merge combinator.
type mergeHead struct {
	src  BatchIterator
	buf  *[]Entry
	pos  int
	n    int
	done bool
}

// cur returns the head's current entry; only valid when pos < n.
func (h *mergeHead) cur() Entry { return (*h.buf)[h.pos] }

// take steps the head past every entry at its current position (a stream
// may repeat one) and returns the last of them, the one that stands for the
// stream in a group.  pos < n must hold.
func (h *mergeHead) take() (Entry, error) {
	e := (*h.buf)[h.pos]
	for {
		if h.pos++; h.pos >= h.n {
			if err := h.refill(); err != nil || h.done {
				return e, err
			}
		}
		next := &(*h.buf)[h.pos]
		if next.SortKey != e.SortKey || next.Doc != e.Doc {
			return e, nil
		}
		e = *next
	}
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

// Union merges any number of inputs, each already in (SortKey desc, Doc asc)
// order, into a single stream in that order.  Entries from different inputs
// at the same position are both emitted (callers that need ADD/REM semantics
// wrap the union in CollapseOps).  Ties are broken by input index so the
// merge is deterministic.
type Union struct {
	heads []mergeHead
	init  bool
}

// NewUnion returns a union over the given inputs.
func NewUnion(srcs ...BatchIterator) *Union {
	heads := make([]mergeHead, len(srcs))
	for i, src := range srcs {
		heads[i] = mergeHead{src: src}
	}
	return &Union{heads: heads}
}

func (u *Union) prime() error {
	for i := range u.heads {
		if err := u.heads[i].refill(); err != nil {
			return err
		}
	}
	u.init = true
	return nil
}

// NextBatch implements BatchIterator.  Runs of entries from one input that
// sort before every other input's next entry are copied out in bulk.
func (u *Union) NextBatch(out []Entry) (int, error) {
	if !u.init {
		if err := u.prime(); err != nil {
			return 0, err
		}
	}
	n := 0
	for n < len(out) {
		// Pick the input whose current entry sorts first; ties keep the
		// lowest input index, matching the documented emit order.
		best := -1
		for i := range u.heads {
			h := &u.heads[i]
			if h.pos >= h.n {
				continue
			}
			if best < 0 || Less(h.cur(), u.heads[best].cur()) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		hb := &u.heads[best]
		buf := (*hb.buf)[:hb.n]
		// The run from the best input extends while its entries sort before
		// every other input's current entry.  limitIdx is the lowest-indexed
		// input holding the smallest such entry; the run may include entries
		// equal to it only when best has the lower input index, preserving
		// the documented tie order.
		limit := Entry{}
		limitIdx := -1
		for i := range u.heads {
			if i == best {
				continue
			}
			h := &u.heads[i]
			if h.pos >= h.n {
				continue
			}
			if e := h.cur(); limitIdx < 0 || Less(e, limit) {
				limit, limitIdx = e, i
			}
		}
		if limitIdx < 0 {
			c := copy(out[n:], buf[hb.pos:])
			n += c
			hb.pos += c
		} else if best < limitIdx {
			for hb.pos < hb.n && n < len(out) && !Less(limit, buf[hb.pos]) {
				out[n] = buf[hb.pos]
				n++
				hb.pos++
			}
		} else {
			for hb.pos < hb.n && n < len(out) && Less(buf[hb.pos], limit) {
				out[n] = buf[hb.pos]
				n++
				hb.pos++
			}
		}
		if hb.pos >= hb.n {
			if err := hb.refill(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Close implements Closer.
func (u *Union) Close() {
	for i := range u.heads {
		u.heads[i].close()
	}
	u.init = true
}

// CollapseOps merges runs of entries at the same (SortKey, Doc) position and
// applies content-update semantics: a REM posting cancels the position
// entirely (the term was removed from the document); otherwise short-list
// postings win over long-list postings so the freshest term score is used.
type CollapseOps struct {
	src     mergeHead
	pending Entry
	have    bool
}

// NewCollapseOps wraps src, which must already be in (SortKey desc, Doc asc)
// order.
func NewCollapseOps(src BatchIterator) *CollapseOps {
	return &CollapseOps{src: mergeHead{src: src}}
}

// nextInput steps the buffered input one entry.
func (c *CollapseOps) nextInput() (Entry, bool, error) {
	if c.src.pos >= c.src.n {
		if err := c.src.refill(); err != nil {
			return Entry{}, false, err
		}
		if c.src.done {
			return Entry{}, false, nil
		}
	}
	e := c.src.cur()
	c.src.pos++
	return e, true, nil
}

// NextBatch implements BatchIterator.
func (c *CollapseOps) NextBatch(out []Entry) (int, error) {
	n := 0
	for n < len(out) {
		if !c.have {
			e, ok, err := c.nextInput()
			if err != nil {
				return n, err
			}
			if !ok {
				break
			}
			c.pending = e
		}
		// Gather the run at this position.
		cur := c.pending
		c.have = false
		removed := cur.Op == OpRem
		best := cur
		for {
			e, ok, err := c.nextInput()
			if err != nil {
				return n, err
			}
			if !ok {
				break
			}
			if !SamePosition(e, cur) {
				c.pending = e
				c.have = true
				break
			}
			if e.Op == OpRem {
				removed = true
			}
			// Prefer short-list postings: their term score is fresher.
			if e.FromShort && !best.FromShort {
				best = e
			}
		}
		if removed {
			continue
		}
		out[n] = best
		n++
	}
	return n, nil
}

// Close implements Closer.
func (c *CollapseOps) Close() {
	c.src.close()
	c.have = false
}

// Group is the set of per-term entries found at one (SortKey, Doc) position.
//
// The Group GroupMerger.Next returns, with its Entries and Present slices,
// is the merger's own and is overwritten by the next call; callers must copy
// out anything they retain past it.
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

// GroupMerger merges k per-term streams (each in (SortKey desc, Doc asc)
// order) and yields one Group per distinct position, in the same order.
// Input postings move in batches; groups are emitted one at a time because
// the stopping rules of Algorithms 2 and 3 are evaluated per position.  A
// query merges two or three streams, so each group is found by one linear
// pass over the heads rather than through a heap: pick the first position
// among the live heads, then take every head entry sitting at it.
type GroupMerger struct {
	heads []mergeHead
	g     Group
	init  bool
}

// NewGroupMerger returns a merger over the given streams.
func NewGroupMerger(streams ...BatchIterator) *GroupMerger {
	heads := make([]mergeHead, len(streams))
	for i, src := range streams {
		heads[i] = mergeHead{src: src}
	}
	return &GroupMerger{
		heads: heads,
		g: Group{
			Entries: make([]Entry, len(streams)),
			Present: make([]bool, len(streams)),
		},
	}
}

func (m *GroupMerger) prime() error {
	for i := range m.heads {
		if err := m.heads[i].refill(); err != nil {
			return err
		}
	}
	m.init = true
	return nil
}

// Next returns the next Group, or ok=false when all streams are exhausted.
// The group is reused; see the Group docs.  Consecutive entries of one
// stream at the group's position fold into the group, the last one
// supplying the stream's entry.
func (m *GroupMerger) Next() (*Group, bool, error) {
	if !m.init {
		if err := m.prime(); err != nil {
			return nil, false, err
		}
	}
	// An exhausted head has pos == n == 0, so it never qualifies.  first is
	// the lowest-indexed head at the smallest position: every head before it
	// sits at a later position.  Heads are compared in place (Less through
	// pointers into their batches), and only the position is kept.
	first := -1
	var top *Entry
	for i := range m.heads {
		h := &m.heads[i]
		if h.pos < h.n {
			if e := &(*h.buf)[h.pos]; first < 0 || e.SortKey > top.SortKey || e.SortKey == top.SortKey && e.Doc < top.Doc {
				first, top = i, e
			}
		}
	}
	if first < 0 {
		return nil, false, nil
	}
	key, doc := top.SortKey, top.Doc
	m.g.Doc, m.g.SortKey = doc, key
	clear(m.g.Present)
	m.g.Count = 0
	for i := first; i < len(m.heads); i++ {
		h := &m.heads[i]
		for h.pos < h.n {
			e := &(*h.buf)[h.pos]
			if e.SortKey != key || e.Doc != doc {
				break
			}
			m.g.Entries[i] = *e
			if !m.g.Present[i] {
				m.g.Present[i] = true
				m.g.Count++
			}
			if h.pos++; h.pos >= h.n {
				if err := h.refill(); err != nil {
					return nil, false, err
				}
			}
		}
	}
	return &m.g, true, nil
}

// Close implements Closer.
func (m *GroupMerger) Close() {
	for i := range m.heads {
		m.heads[i].close()
	}
	m.init = true
}

// Conjunction merges k per-term streams (each in (SortKey desc, Doc asc)
// order) for a conjunctive query.  It passes the positions GroupMerger would
// group, in the same order, but returns a Group only for a position every
// stream holds; the others it only counts and stop-checks, which is all a
// conjunctive scan does with them:
//
//   - Scanned sums, over every position passed, the streams holding a
//     posting there — the Group.Count of each GroupMerger group.
//   - Next's stop function is the scan's early-termination test, and the
//     position where it first reports true ends the scan (counted, and with
//     Stopped set).  The test depends on the caller's heap and the position's
//     sort key, and the heap changes only at a match, which Next returns to
//     the caller: so Next asks it only at the first position of a call and
//     at each position whose sort key differs from the previous one's, and
//     stops at the same position a test at every position would.
//
// A stream may repeat a position; the repeats fold into one, the last one
// supplying the stream's entry, as in GroupMerger.
type Conjunction struct {
	heads []mergeHead
	g     Group
	init  bool
	key   float64 // sort key of the last position passed
	// Scanned is the postings the merge has passed, counted as above.
	Scanned int
	// Stopped reports that the stop function ended the merge.
	Stopped bool
}

// NewConjunction returns a conjunctive merge over the given streams.
func NewConjunction(streams ...BatchIterator) *Conjunction {
	heads := make([]mergeHead, len(streams))
	for i, src := range streams {
		heads[i] = mergeHead{src: src}
	}
	present := make([]bool, len(streams))
	for i := range present {
		present[i] = true
	}
	return &Conjunction{
		heads: heads,
		g:     Group{Entries: make([]Entry, len(streams)), Present: present, Count: len(streams)},
	}
}

// Next returns the next position every stream holds, as a Group with every
// stream present, or ok=false once the streams are exhausted or stop has
// ended the merge.  The group is reused; see the Group docs.
func (m *Conjunction) Next(stop func(sortKey float64) bool) (*Group, bool, error) {
	if !m.init {
		for i := range m.heads {
			if err := m.heads[i].refill(); err != nil {
				return nil, false, err
			}
		}
		m.init = true
	}
	for fresh := true; !m.Stopped; fresh = false {
		// One pass finds the first position and how many streams hold it.
		// An exhausted head has pos == n == 0, so it never qualifies; every
		// head before first sits at a later position.
		first, count := -1, 0
		var top *Entry
		for i := range m.heads {
			h := &m.heads[i]
			if h.pos >= h.n {
				continue
			}
			if e := &(*h.buf)[h.pos]; first < 0 || e.SortKey > top.SortKey || e.SortKey == top.SortKey && e.Doc < top.Doc {
				first, top, count = i, e, 1
			} else if e.SortKey == top.SortKey && e.Doc == top.Doc {
				count++
			}
		}
		if first < 0 {
			return nil, false, nil
		}
		key, doc := top.SortKey, top.Doc
		m.Scanned += count
		if (fresh || key != m.key) && stop(key) {
			m.Stopped = true
			return nil, false, nil
		}
		m.key = key
		for i := first; i < len(m.heads); i++ {
			h := &m.heads[i]
			if h.pos < h.n && (*h.buf)[h.pos].SortKey == key && (*h.buf)[h.pos].Doc == doc {
				e, err := h.take()
				if err != nil {
					return nil, false, err
				}
				m.g.Entries[i] = e
			}
		}
		if count == len(m.heads) {
			m.g.Doc, m.g.SortKey = doc, key
			return &m.g, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Closer.
func (m *Conjunction) Close() {
	for i := range m.heads {
		m.heads[i].close()
	}
	m.init = true
}
