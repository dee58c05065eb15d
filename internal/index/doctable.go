package index

import (
	"fmt"

	"svrdb/internal/codec"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// docTable is the index's one document-keyed table: the paper's Score table
// — the materialized Score view of §3.2, the single collection-wide table
// mapping document IDs to their latest SVR score, indexed by ID so that score
// lookups during query processing are cheap (§4.2.1).  In the threshold
// family each row also records the list key the document's authoritative
// postings are filed under, the relation the paper keeps in a second table
// (ListScore in §4.3.1, ListChunk in §4.3.2): a resolver reads a candidate's
// score and its list key in one lookup, and Algorithm 1 reads and writes one
// row.
//
// Every row is fixed-width (8-byte key, rowBytes or keyedRowBytes of value),
// so Put over an existing document — the common case in Algorithm 1, where a
// score update overwrites the score and, when it crosses the threshold, the
// list key — qualifies for the B+-tree's in-place leaf patch fast path: the
// value bytes are overwritten in the pinned leaf page instead of the whole
// leaf being reserialized.  This is the heart of Algorithm 1's hot loop for
// every method.
//
// Writes land in an in-memory overlay that reads consult first, and
// flushBatch — at the end of every Method.ApplyUpdates — applies the overlay
// to the B+-tree as one sorted UpsertBatch, so a batch touching a leaf many
// times rewrites it once.
type docTable struct {
	tree  *btree.Tree
	width rowWidth
	// retire receives superseded pages once COW snapshots are enabled.
	retire func(pagefile.PageID)

	pending map[DocID]docRow
}

// docRow is the decoded value of one row.
type docRow struct {
	// val is the document's latest score.
	val float64
	// key is the list key the document's authoritative postings are filed
	// under (stored in the threshold family's rows only): the key of its
	// build score until Algorithm 1 moves them to a strictly higher key in
	// the short lists, or an insert files them there.
	key float64
	// deleted marks a deleted document (Appendix A.2).
	deleted bool
	// short marks a document whose postings Algorithm 1 moved to the short
	// lists (threshold family): the copy filed under key is a short-list
	// copy, which the next crossing update deletes.  A crossing or an insert
	// sets it, a delete or a merge clears it.
	short bool
}

// Row flag bits, the last byte of every row.
const (
	flagDeleted byte = 1 << 0
	flagShort   byte = 1 << 1
)

// rowWidth is the width of a table's rows: rowBytes (an 8-byte score and a
// flag byte), or keyedRowBytes where the list key sits between the two.
type rowWidth int

const (
	rowBytes      rowWidth = 9
	keyedRowBytes rowWidth = 17
)

// newDocTable returns an empty table of rows of the given width.
func newDocTable(pool *buffer.Pool, width rowWidth) (*docTable, error) {
	tree, err := btree.New(pool)
	if err != nil {
		return nil, err
	}
	return &docTable{tree: tree, width: width, pending: map[DocID]docRow{}}, nil
}

// enableCOW switches the table's tree to copy-on-write publication.
func (t *docTable) enableCOW(retire func(pagefile.PageID)) {
	t.retire = retire
	t.tree.EnableCOW(retire)
}

// snapshotView seals the tree and captures a frozen docView for publication.
func (t *docTable) snapshotView() docView {
	t.tree.Seal()
	return docView{view: t.tree.View(), width: t.width, patches: t.tree.Patches(), len: t.tree.Len()}
}

// docView is a frozen, read-only image of a docTable.
type docView struct {
	view    btree.View
	width   rowWidth
	patches uint64
	len     int
}

// Get returns the row of doc in the view, if any.  The row is copied out of
// the page into a stack buffer, so a lookup allocates nothing.
func (v docView) Get(doc DocID) (docRow, bool, error) {
	key := docKey(doc)
	var buf [keyedRowBytes]byte
	return v.width.lookup(v.view.Get(buf[:0], key[:]))
}

// Len reports the row count at capture time.
func (v docView) Len() int { return v.len }

// Patches reports the in-place patch count at capture time.
func (v docView) Patches() uint64 { return v.patches }

// docKey is the 8-byte order-preserving key of a document, returned by value
// so that lookups build it on the stack; docItem is its heap form for the
// write paths, which hand keys to the tree to keep.
func docKey(doc DocID) (key [8]byte) {
	codec.PutOrderedUint64(key[:0], uint64(doc))
	return key
}

// item encodes one row as the tree stores it: always w value bytes.
func (w rowWidth) item(doc DocID, r docRow) btree.Item {
	key := docKey(doc)
	val := codec.PutFloat64(make([]byte, 0, w), r.val)
	if w == keyedRowBytes {
		val = codec.PutFloat64(val, r.key)
	}
	var flag byte
	if r.deleted {
		flag |= flagDeleted
	}
	if r.short {
		flag |= flagShort
	}
	return btree.Item{Key: key[:], Value: append(val, flag)}
}

// decode reads a row of width w.  Every writer stores exactly w bytes with
// no flag bit but the two defined ones, so any other value is corrupt: a
// rotted flag byte must not revive a deleted document or invent a
// short-list copy.
func (w rowWidth) decode(data []byte) (docRow, error) {
	if len(data) != int(w) {
		return docRow{}, fmt.Errorf("%w: table row of %d bytes, want %d", codec.ErrCorrupt, len(data), w)
	}
	var r docRow
	r.val, _, _ = codec.Float64(data)
	if w == keyedRowBytes {
		r.key, _, _ = codec.Float64(data[8:])
	}
	flag := data[w-1]
	if flag&^(flagDeleted|flagShort) != 0 {
		return docRow{}, fmt.Errorf("%w: table row flag byte %#x", codec.ErrCorrupt, flag)
	}
	r.deleted, r.short = flag&flagDeleted != 0, flag&flagShort != 0
	return r, nil
}

// lookup turns the result of a tree, view or probe lookup in a table of
// width w into a row.
func (w rowWidth) lookup(data []byte, found bool, err error) (docRow, bool, error) {
	if err != nil || !found {
		return docRow{}, false, err
	}
	r, err := w.decode(data)
	return r, err == nil, err
}

// rowScore reads a Score-table lookup as a resolver reports it: the score,
// and live=false for a deleted or unknown document.
func rowScore(r docRow, ok bool, err error) (score float64, live bool, _ error) {
	return r.val, ok && !r.deleted, err
}

// Put inserts or replaces the row of doc in the overlay.
func (t *docTable) Put(doc DocID, r docRow) { t.pending[doc] = r }

// Get returns the current row of doc, if any: the overlay's, else the tree's.
func (t *docTable) Get(doc DocID) (docRow, bool, error) {
	if r, hit := t.pending[doc]; hit {
		return r, true, nil
	}
	key := docKey(doc)
	return t.width.lookup(t.tree.Get(key[:]))
}

// docProbe is the per-query reader of a docView.  It lives in the pooled
// queryCtx, which thereby owns the probe's leaf image across queries; bind
// rebinds it to the query's snapshot.  Every row a query resolves goes
// through Get or Descend, so the Score table's probe's lookups is the
// query's QueryResult.ScoreLookups.
type docProbe struct {
	v       docView
	p       btree.Probe
	lookups int
}

// bind points the probe at a frozen table, keeping its buffers, and zeroes
// the lookup count.  The zero docView unbinds it.
func (dp *docProbe) bind(v docView) {
	dp.v = v
	dp.p.Reset(v.view)
	dp.lookups = 0
}

// Get mirrors docView.Get through the probe.  It exploits the ascending
// document order of candidate resolution: consecutive lookups reuse the
// B+-tree leaf of the previous one instead of re-descending and re-scanning
// it.
func (dp *docProbe) Get(doc DocID) (docRow, bool, error) {
	dp.lookups++
	key := docKey(doc)
	return dp.v.width.lookup(dp.p.Get(key[:]))
}

// Descend is Get by a full descent of the snapshot's tree, for candidates
// that arrive in no document order, where a cached leaf rarely helps.
func (dp *docProbe) Descend(doc DocID) (docRow, bool, error) {
	dp.lookups++
	return dp.v.Get(doc)
}

// dirty reports whether the overlay holds writes.
func (t *docTable) dirty() bool { return len(t.pending) > 0 }

// flushBatch applies the overlay to the tree as one grouped UpsertBatch
// (which sorts the keys itself) and empties it.
func (t *docTable) flushBatch() error {
	if len(t.pending) == 0 {
		return nil
	}
	items := make([]btree.Item, 0, len(t.pending))
	for doc, r := range t.pending {
		items = append(items, t.width.item(doc, r))
	}
	clear(t.pending)
	_, err := t.tree.UpsertBatch(items)
	return err
}

// bulkLoad replaces the tree with one bulk-built from items, which must be
// in ascending document order, and retires the replaced one.  Builds and
// merges use it so populating the Score table costs one left-to-right
// leaf-packing pass instead of one descent per document.  The leaves are
// packed to the tree's maximum fill: every query resolves its candidates
// against this table, so its page count is what a query pays in pool
// frames, while a score update costs the same at any fill — it patches the
// row's fixed-width bytes in place (or in the COW copy of its leaf, logged
// as a delta against the copy's previous page).  The replaced tree's
// published pages stay readable until their epoch drains.
func (t *docTable) bulkLoad(pool *buffer.Pool, items []btree.Item) error {
	tree, err := btree.BulkLoad(pool, items, btree.MaxBulkFill)
	if err != nil {
		return err
	}
	old := t.tree
	t.tree = tree
	tree.EnableCOW(t.retire)
	return old.RetireAll()
}

// Len reports the number of rows (in the Score table, deleted markers
// included).
func (t *docTable) Len() int { return t.tree.Len() }

// ForEach visits every (doc, row) pair in document order.
func (t *docTable) ForEach(visit func(doc DocID, r docRow) bool) error {
	c := t.tree.View().Cursor(nil, nil)
	defer c.Close()
	for c.More() {
		k, v := c.Next()
		id, _, err := codec.OrderedUint64(k)
		if err != nil {
			return err
		}
		r, err := t.width.decode(v)
		if err != nil {
			return err
		}
		if !visit(DocID(id), r) {
			return nil
		}
	}
	return c.Err()
}
