package index

import (
	"svrdb/internal/codec"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// listTable implements both the ListScore table of the Score-Threshold
// method and the ListChunk table of the Chunk family: one row per document
// whose score has been updated since the long lists were built, recording
// the document's current position in the inverted lists (its stale list
// score, or its list chunk ID stored as a float) and whether postings for it
// have been written to the short lists.
// During a write batch the table runs in staged mode like scoreTable: Puts
// collect in an overlay that Get consults first, and flushBatch applies the
// overlay as one sorted UpsertBatch.
// Rows are fixed-width (8-byte key, 9-byte value), so Put over an existing
// document — the common case in Algorithm 1, where a score update moves a
// document's recorded list position — hits the tree's in-place patch path.
type listTable struct {
	tree *btree.Tree
	// retire receives superseded pages once COW snapshots are enabled.
	retire func(pagefile.PageID)

	staged  bool
	pending map[DocID]listEntry
}

// listEntry is one row of a listTable.
type listEntry struct {
	// Key is the document's list score (Score-Threshold) or list chunk ID
	// (Chunk family, stored as float64(cid)).
	Key float64
	// InShortList reports whether the document has postings in the short
	// lists (its score crossed the threshold at some point).
	InShortList bool
}

func newListTable(pool *buffer.Pool) (*listTable, error) {
	tree, err := btree.New(pool)
	if err != nil {
		return nil, err
	}
	return &listTable{tree: tree}, nil
}

// enableCOW switches the table's tree to copy-on-write publication.
func (t *listTable) enableCOW(retire func(pagefile.PageID)) {
	t.retire = retire
	t.tree.EnableCOW(retire)
}

// snapshotView seals the tree and captures a frozen listView for
// publication.
func (t *listTable) snapshotView() listView {
	t.tree.Seal()
	return listView{view: t.tree.View(), patches: t.tree.Patches(), len: t.tree.Len()}
}

// listView is a frozen, read-only image of a listTable.
type listView struct {
	view    btree.View
	patches uint64
	len     int
}

// Get returns the entry for doc in the view, if any.
func (v listView) Get(doc DocID) (listEntry, bool, error) {
	key := docKey(doc)
	data, ok, err := v.view.Get(key[:])
	if err != nil || !ok {
		return listEntry{}, false, err
	}
	e, err := decodeListEntry(data)
	if err != nil {
		return listEntry{}, false, err
	}
	return e, true, nil
}

// Len reports the entry count at capture time.
func (v listView) Len() int { return v.len }

// Patches reports the in-place patch count at capture time.
func (v listView) Patches() uint64 { return v.patches }

func listTableKey(doc DocID) []byte {
	key := docKey(doc)
	return key[:]
}

// Get returns the entry for doc, if any.
func (t *listTable) Get(doc DocID) (listEntry, bool, error) {
	if t.staged {
		if e, hit := t.pending[doc]; hit {
			return e, true, nil
		}
	}
	key := docKey(doc)
	data, ok, err := t.tree.Get(key[:])
	if err != nil || !ok {
		return listEntry{}, false, err
	}
	e, err := decodeListEntry(data)
	if err != nil {
		return listEntry{}, false, err
	}
	return e, true, nil
}

func decodeListEntry(data []byte) (listEntry, error) {
	key, n, err := codec.Float64(data)
	if err != nil {
		return listEntry{}, err
	}
	return listEntry{Key: key, InShortList: n < len(data) && data[n] == 1}, nil
}

func encodeListEntry(e listEntry) []byte {
	val := codec.PutFloat64(nil, e.Key)
	if e.InShortList {
		val = append(val, 1)
	} else {
		val = append(val, 0)
	}
	return val
}

// Put inserts or replaces the entry for doc.
func (t *listTable) Put(doc DocID, e listEntry) error {
	if t.staged {
		t.pending[doc] = e
		return nil
	}
	return t.tree.Put(listTableKey(doc), encodeListEntry(e))
}

// listProbe is the per-query locality-aware reader of a listView,
// mirroring scoreProbe (and, like it, owned by the pooled queryCtx).
type listProbe struct {
	p btree.Probe
}

// bind points the probe at a frozen table, keeping its buffers.  The zero
// listView unbinds it.
func (lp *listProbe) bind(v listView) { lp.p.Reset(v.view) }

// Get mirrors listView.Get through the probe.
func (lp *listProbe) Get(doc DocID) (listEntry, bool, error) {
	key := docKey(doc)
	data, ok, err := lp.p.Get(key[:])
	if err != nil || !ok {
		return listEntry{}, false, err
	}
	e, err := decodeListEntry(data)
	if err != nil {
		return listEntry{}, false, err
	}
	return e, true, nil
}

// beginBatch enters staged mode.
func (t *listTable) beginBatch() {
	t.staged = true
	if t.pending == nil {
		t.pending = map[DocID]listEntry{}
	}
}

// flushBatch applies the overlay to the tree with grouped writes (the
// batch ops sort the keys themselves) and leaves staged mode.
func (t *listTable) flushBatch() error {
	t.staged = false
	if len(t.pending) == 0 {
		return nil
	}
	items := make([]btree.Item, 0, len(t.pending))
	for doc, e := range t.pending {
		items = append(items, btree.Item{Key: listTableKey(doc), Value: encodeListEntry(e)})
	}
	clear(t.pending)
	_, err := t.tree.UpsertBatch(items)
	return err
}

// Len reports the number of entries.
func (t *listTable) Len() int { return t.tree.Len() }

// Patches reports how many writes the table's tree absorbed in place.
func (t *listTable) Patches() uint64 { return t.tree.Patches() }
