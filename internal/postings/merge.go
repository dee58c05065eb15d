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
//     terms whose stream contains that document there.  Conjunctive queries
//     accept groups covering every term, disjunctive queries any non-empty
//     group.
//
// All three run on the block-at-a-time protocol: they pull batches from
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
// The Entries and Present slices returned by GroupMerger.Next are reused
// across calls; callers must copy out anything they retain past the next
// Next call.
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
// the stopping rules of Algorithms 2 and 3 are evaluated per position.
type GroupMerger struct {
	heads []mergeHead
	order []int // binary min-heap of head indices, ordered by current entry
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
		order: make([]int, 0, len(streams)),
		g: Group{
			Entries: make([]Entry, len(streams)),
			Present: make([]bool, len(streams)),
		},
	}
}

// NumStreams reports the number of merged streams.
func (m *GroupMerger) NumStreams() int { return len(m.heads) }

// lessIdx orders two heads by their current entries, ties by head index so
// duplicate positions across streams pop in stream order.
func (m *GroupMerger) lessIdx(x, y int) bool {
	a, b := m.heads[x].cur(), m.heads[y].cur()
	if a.SortKey != b.SortKey || a.Doc != b.Doc {
		return Less(a, b)
	}
	return x < y
}

func (m *GroupMerger) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !m.lessIdx(m.order[i], m.order[parent]) {
			break
		}
		m.order[i], m.order[parent] = m.order[parent], m.order[i]
		i = parent
	}
}

func (m *GroupMerger) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(m.order) && m.lessIdx(m.order[l], m.order[smallest]) {
			smallest = l
		}
		if r < len(m.order) && m.lessIdx(m.order[r], m.order[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.order[i], m.order[smallest] = m.order[smallest], m.order[i]
		i = smallest
	}
}

func (m *GroupMerger) prime() error {
	for i := range m.heads {
		if err := m.heads[i].refill(); err != nil {
			return err
		}
		if !m.heads[i].done {
			m.order = append(m.order, i)
			m.siftUp(len(m.order) - 1)
		}
	}
	m.init = true
	return nil
}

// popRoot removes the exhausted head at the heap root.
func (m *GroupMerger) popRoot() {
	last := len(m.order) - 1
	m.order[0] = m.order[last]
	m.order = m.order[:last]
	if len(m.order) > 1 {
		m.siftDown(0)
	}
}

// Next returns the next Group, or ok=false when all streams are exhausted.
// The group's slices are reused; see the Group docs.
func (m *GroupMerger) Next() (Group, bool, error) {
	if !m.init {
		if err := m.prime(); err != nil {
			return Group{}, false, err
		}
	}
	if len(m.order) == 0 {
		return Group{}, false, nil
	}
	top := m.heads[m.order[0]].cur()
	m.g.Doc, m.g.SortKey = top.Doc, top.SortKey
	for i := range m.g.Present {
		m.g.Present[i] = false
	}
	m.g.Count = 0
	for len(m.order) > 0 {
		i := m.order[0]
		h := &m.heads[i]
		e := h.cur()
		if e.SortKey != top.SortKey || e.Doc != top.Doc {
			break
		}
		m.g.Entries[i] = e
		if !m.g.Present[i] {
			m.g.Present[i] = true
			m.g.Count++
		}
		// Advance that stream and restore heap order.
		h.pos++
		if h.pos >= h.n {
			if err := h.refill(); err != nil {
				return Group{}, false, err
			}
			if h.done {
				m.popRoot()
				continue
			}
		}
		m.siftDown(0)
	}
	return m.g, true, nil
}

// Close implements Closer.
func (m *GroupMerger) Close() {
	for i := range m.heads {
		m.heads[i].close()
	}
	m.order = m.order[:0]
	m.init = true
}
