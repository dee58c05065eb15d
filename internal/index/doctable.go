package index

import (
	"fmt"

	"svrdb/internal/codec"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// docTable is the one document-keyed, fixed-width table type of the index.
// Every method keeps one as the paper's Score table — the materialized Score
// view of §3.2, the single collection-wide table mapping document IDs to
// their latest SVR score, indexed by ID so that score lookups during query
// processing are cheap (§4.2.1) — and the threshold family keeps a second one
// as its ListScore (Score-Threshold) or ListChunk (Chunk family) table: one
// row per document whose score has been updated since the long lists were
// built, recording the document's current position in the inverted lists.
//
// Every row is fixed-width (8-byte key, 9-byte value), so Put over an
// existing document — the common case in Algorithm 1, where a score update
// overwrites the score and moves the recorded list position — qualifies for
// the B+-tree's in-place leaf patch fast path: 9 bytes are overwritten in
// the pinned leaf page instead of the whole leaf being reserialized.  This
// is the heart of Algorithm 1's hot loop for every method.
//
// During a write batch (Method.ApplyUpdates) the table runs in staged mode:
// writes land in an in-memory overlay that reads consult first, and
// flushBatch applies the overlay to the B+-tree as one sorted UpsertBatch,
// so a batch touching a leaf many times rewrites it once.
type docTable struct {
	tree *btree.Tree
	// retire receives superseded pages once COW snapshots are enabled.
	retire func(pagefile.PageID)

	staged  bool
	pending map[DocID]docRow
}

// docRow is the decoded value of one row: a float and a flag, whose meaning
// is the table's.
type docRow struct {
	// val is the document's latest score (Score table), its stale list score
	// (ListScore) or its list chunk ID stored as float64(cid) (ListChunk).
	val float64
	// flag marks a deleted document in the Score table (Appendix A.2) and, in
	// ListScore/ListChunk, a document that has postings in the short lists
	// (its score crossed the threshold at some point).
	flag bool
}

func newDocTable(pool *buffer.Pool) (*docTable, error) {
	tree, err := btree.New(pool)
	if err != nil {
		return nil, err
	}
	return &docTable{tree: tree}, nil
}

// enableCOW switches the table's tree to copy-on-write publication.
func (t *docTable) enableCOW(retire func(pagefile.PageID)) {
	t.retire = retire
	t.tree.EnableCOW(retire)
}

// snapshotView seals the tree and captures a frozen docView for publication.
func (t *docTable) snapshotView() docView {
	t.tree.Seal()
	return docView{view: t.tree.View(), patches: t.tree.Patches(), len: t.tree.Len()}
}

// docView is a frozen, read-only image of a docTable.
type docView struct {
	view    btree.View
	patches uint64
	len     int
}

// Get returns the row of doc in the view, if any.
func (v docView) Get(doc DocID) (docRow, bool, error) {
	key := docKey(doc)
	return decodeLookup(v.view.Get(key[:]))
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

// docItem encodes one row as the tree stores it: always 9 value bytes.
func docItem(doc DocID, r docRow) btree.Item {
	key := docKey(doc)
	val := codec.PutFloat64(nil, r.val)
	if r.flag {
		val = append(val, 1)
	} else {
		val = append(val, 0)
	}
	return btree.Item{Key: key[:], Value: val}
}

func decodeDocRow(data []byte) (docRow, error) {
	val, n, err := codec.Float64(data)
	if err != nil {
		return docRow{}, err
	}
	if n >= len(data) {
		return docRow{}, fmt.Errorf("index: table row of %d bytes is missing its flag", len(data))
	}
	return docRow{val: val, flag: data[n] == 1}, nil
}

// decodeLookup turns the result of a tree, view or probe lookup into a row.
func decodeLookup(data []byte, found bool, err error) (docRow, bool, error) {
	if err != nil || !found {
		return docRow{}, false, err
	}
	r, err := decodeDocRow(data)
	return r, err == nil, err
}

// rowScore reads a Score-table lookup as a resolver reports it: the score,
// and live=false for a deleted or unknown document.
func rowScore(r docRow, ok bool, err error) (score float64, live bool, _ error) {
	return r.val, ok && !r.flag, err
}

// Put inserts or replaces the row of doc.
func (t *docTable) Put(doc DocID, r docRow) error {
	if t.staged {
		t.pending[doc] = r
		return nil
	}
	it := docItem(doc, r)
	return t.tree.Put(it.Key, it.Value)
}

// Get returns the current row of doc, if any.
func (t *docTable) Get(doc DocID) (docRow, bool, error) {
	if t.staged {
		if r, hit := t.pending[doc]; hit {
			return r, true, nil
		}
	}
	key := docKey(doc)
	return decodeLookup(t.tree.Get(key[:]))
}

// MarkDeleted sets a document's flag without discarding its value: in the
// Score table, the deletion marker queries filter on.
func (t *docTable) MarkDeleted(doc DocID) error {
	r, ok, err := t.Get(doc)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	r.flag = true
	return t.Put(doc, r)
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
	return decodeLookup(dp.p.Get(key[:]))
}

// Descend is Get by a full descent of the snapshot's tree, for candidates
// that arrive in no document order, where a cached leaf rarely helps.
func (dp *docProbe) Descend(doc DocID) (docRow, bool, error) {
	dp.lookups++
	return dp.v.Get(doc)
}

// beginBatch enters staged mode: subsequent writes collect in the overlay.
func (t *docTable) beginBatch() {
	t.staged = true
	if t.pending == nil {
		t.pending = map[DocID]docRow{}
	}
}

// flushBatch applies the overlay to the tree as one grouped UpsertBatch
// (which sorts the keys itself) and leaves staged mode.
func (t *docTable) flushBatch() error {
	t.staged = false
	if len(t.pending) == 0 {
		return nil
	}
	items := make([]btree.Item, 0, len(t.pending))
	for doc, r := range t.pending {
		items = append(items, docItem(doc, r))
	}
	clear(t.pending)
	_, err := t.tree.UpsertBatch(items)
	return err
}

// scoreBulkFill is the node fill target for bulk-loading the Score
// table.  Unlike the read-mostly long lists, the Score table absorbs one
// in-place leaf rewrite per score update, and a leaf rewrite costs
// proportionally to leaf size — so the update-hot table is loaded at
// roughly the occupancy ascending inserts would have produced rather than
// packed dense.
const scoreBulkFill = 0.55

// bulkLoad replaces the (empty) tree with one bulk-built from items, which
// must be in ascending document order.  Build paths use it so populating
// the Score table costs one left-to-right leaf-packing pass instead of one
// descent per document.
func (t *docTable) bulkLoad(pool *buffer.Pool, items []btree.Item) error {
	tree, err := btree.BulkLoadFill(pool, items, scoreBulkFill)
	if err != nil {
		return err
	}
	old := t.tree
	t.tree = tree
	if t.retire != nil {
		tree.EnableCOW(t.retire)
		return old.RetireAll()
	}
	return nil
}

// Patches reports how many writes the table's tree absorbed in place.
func (t *docTable) Patches() uint64 { return t.tree.Patches() }

// Len reports the number of rows (in the Score table, deleted markers
// included).
func (t *docTable) Len() int { return t.tree.Len() }

// ForEach visits every (doc, row) pair in document order.
func (t *docTable) ForEach(visit func(doc DocID, r docRow) bool) error {
	var innerErr error
	err := t.tree.Ascend(func(k, v []byte) bool {
		id, _, err := codec.OrderedUint64(k)
		if err != nil {
			innerErr = err
			return false
		}
		r, err := decodeDocRow(v)
		if err != nil {
			innerErr = err
			return false
		}
		return visit(DocID(id), r)
	})
	if innerErr != nil {
		return innerErr
	}
	return err
}
