package index

import (
	"bytes"
	"fmt"

	"svrdb/internal/codec"
	"svrdb/internal/postings"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// keyedList is a B+-tree-backed posting list keyed by
// (term, sortKey descending, docID ascending) and is used for
//
//   - every method's short lists (§4.3.1, §4.3.2): sortKey is the stale list
//     score (Score-Threshold) or the chunk ID (Chunk family);
//   - the Score method's clustered long lists (§4.2.2): sortKey is the exact
//     document score and the list is updated in place on every score update;
//   - the ID family's auxiliary lists for incrementally inserted documents:
//     sortKey is 0 so postings order purely by docID.
//
// Each posting's value carries the ADD/REM operation flag needed for content
// updates (Appendix A.1) and, for the TermScore methods, the per-posting
// term weight.
// Put/Delete collect in an ordered op log collapsed per key (last op wins,
// matching sequential semantics), and flushBatch — at the end of every
// Method.ApplyUpdates — applies the log to the B+-tree as one sorted
// UpsertBatch plus one sorted DeleteBatch, so a batch that writes many
// postings of one term rewrites each touched leaf once.
type keyedList struct {
	tree *btree.Tree
	// retire receives superseded pages once copy-on-write snapshots are
	// enabled (see enableCOW); nil means the list recycles pages eagerly.
	retire func(pagefile.PageID)

	ops   []keyedOp
	opIdx map[string]int
	// docOps indexes staged op positions by document so DeleteDoc can
	// cancel a document's staged postings without sweeping the log.
	docOps map[DocID][]int
}

// keyedOp is one staged write: a pending upsert (del == false) or delete.
type keyedOp struct {
	key []byte
	val []byte
	del bool
}

func newKeyedList(pool *buffer.Pool) (*keyedList, error) {
	tree, err := btree.New(pool)
	if err != nil {
		return nil, err
	}
	return &keyedList{tree: tree, opIdx: map[string]int{}, docOps: map[DocID][]int{}}, nil
}

// enableCOW switches the list's tree to copy-on-write publication: sealed
// pages superseded by later writes flow to retire instead of the free list,
// so published snapshots stay readable until their epoch drains.
func (l *keyedList) enableCOW(retire func(pagefile.PageID)) {
	l.retire = retire
	l.tree.EnableCOW(retire)
}

// snapshotView seals the tree and captures a frozen keyedView of its
// current contents for publication.
func (l *keyedList) snapshotView() keyedView {
	l.tree.Seal()
	return keyedView{view: l.tree.View(), entries: l.tree.Len(), patches: l.tree.Patches()}
}

func keyedListKey(term string, sortKey float64, doc DocID) []byte {
	key := codec.PutOrderedString(nil, term)
	key = codec.PutOrderedFloat64Desc(key, sortKey)
	return codec.PutOrderedUint64(key, uint64(doc))
}

func keyedListPrefix(term string) []byte {
	return codec.PutOrderedString(nil, term)
}

// decodeKeyedListSuffix decodes the (sortKey, doc) tail of a keyedList key —
// what follows the term prefix.  Scans address one term, so they know the
// prefix length up front and never need to materialize the term string.
func decodeKeyedListSuffix(suffix []byte) (sortKey float64, doc DocID, err error) {
	sortKey, n, err := codec.OrderedFloat64Desc(suffix)
	if err != nil {
		return 0, 0, err
	}
	id, _, err := codec.OrderedUint64(suffix[n:])
	if err != nil {
		return 0, 0, err
	}
	return sortKey, DocID(id), nil
}

// keyedListDoc decodes the document of a whole keyedList key: the term up
// to its terminator, then the (sortKey, doc) suffix.
func keyedListDoc(key []byte) (DocID, error) {
	i := bytes.IndexByte(key, 0x00)
	if i < 0 {
		return 0, fmt.Errorf("%w: short-list key without a term terminator", codec.ErrCorrupt)
	}
	_, doc, err := decodeKeyedListSuffix(key[i+1:])
	return doc, err
}

// keyedListValueLen is the width of every posting value: the op byte and
// the float32 term weight.
const keyedListValueLen = 5

func encodeKeyedListValue(op postings.Op, termScore float32) []byte {
	out := []byte{byte(op)}
	return codec.PutFloat32(out, termScore)
}

// decodeKeyedListValue reads a posting value.  Every writer writes exactly
// keyedListValueLen bytes with an ADD or REM op, so any other value is
// corrupt rather than a posting with a default op or weight.
func decodeKeyedListValue(data []byte) (op postings.Op, termScore float32, err error) {
	if len(data) != keyedListValueLen {
		return 0, 0, fmt.Errorf("%w: short-list posting value of %d bytes, want %d", codec.ErrCorrupt, len(data), keyedListValueLen)
	}
	op = postings.Op(data[0])
	if op != postings.OpAdd && op != postings.OpRem {
		return 0, 0, fmt.Errorf("%w: short-list posting op %d", codec.ErrCorrupt, op)
	}
	termScore, _, err = codec.Float32(data[1:])
	return op, termScore, err
}

// Put stages an insert or replace of the posting for (term, sortKey, doc).
func (l *keyedList) Put(term string, sortKey float64, doc DocID, op postings.Op, termScore float32) {
	l.stageOp(doc, keyedListKey(term, sortKey, doc), encodeKeyedListValue(op, termScore), false)
}

// Delete stages the removal of the posting for (term, sortKey, doc) if
// present.
func (l *keyedList) Delete(term string, sortKey float64, doc DocID) {
	l.stageOp(doc, keyedListKey(term, sortKey, doc), nil, true)
}

// stageOp records a write in the op log, collapsing onto any earlier op for
// the same key (last op wins, exactly as sequential application would).
func (l *keyedList) stageOp(doc DocID, key, val []byte, del bool) {
	if i, ok := l.opIdx[string(key)]; ok {
		l.ops[i].val = val
		l.ops[i].del = del
		return
	}
	l.opIdx[string(key)] = len(l.ops)
	l.docOps[doc] = append(l.docOps[doc], len(l.ops))
	l.ops = append(l.ops, keyedOp{key: key, val: val, del: del})
}

// DeleteDoc stages the removal of every posting of the document, under every
// term and sort key, found in one ascent of the tree, and cancels its staged
// postings (Appendix A.2: a delete purges the short lists so that a reused
// ID is safe).  A key that does not decode is corruption: the error wraps
// codec.ErrCorrupt and nothing is staged.
func (l *keyedList) DeleteDoc(doc DocID) error {
	var keys [][]byte
	c := l.tree.View().Cursor(nil, nil)
	defer c.Close()
	for c.More() {
		k, _ := c.Next()
		d, err := keyedListDoc(k)
		if err != nil {
			return fmt.Errorf("index: purge of document %d: %w", doc, err)
		}
		if d == doc {
			keys = append(keys, append([]byte(nil), k...))
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	for _, i := range l.docOps[doc] {
		l.ops[i].val = nil
		l.ops[i].del = true
	}
	for _, k := range keys {
		l.stageOp(doc, k, nil, true)
	}
	return nil
}

// dirty reports whether the op log holds writes.
func (l *keyedList) dirty() bool { return len(l.ops) > 0 }

// flushBatch applies the op log with grouped tree writes and empties it.
func (l *keyedList) flushBatch() error {
	if len(l.ops) == 0 {
		return nil
	}
	items := make([]btree.Item, 0, len(l.ops))
	var dels [][]byte
	for i := range l.ops {
		if l.ops[i].del {
			dels = append(dels, l.ops[i].key)
		} else {
			items = append(items, btree.Item{Key: l.ops[i].key, Value: l.ops[i].val})
		}
	}
	l.ops = l.ops[:0]
	clear(l.opIdx)
	clear(l.docOps)
	if _, err := l.tree.UpsertBatch(items); err != nil {
		return err
	}
	if len(dels) > 0 {
		_, err := l.tree.DeleteBatch(dels)
		return err
	}
	return nil
}

// keyedListBulkFill is the node fill target for bulk-loaded keyed lists.
// The only bulk-loaded keyedList is the Score method's clustered long
// lists, which every score update rewrites in place; like the Score table
// they are loaded at roughly upsert occupancy so the per-update leaf
// rewrite does not grow with packing density.  Queries scan only a top-k
// prefix of each list, so they are nearly insensitive to the fill.
const keyedListBulkFill = 0.6

// bulkLoad replaces the (empty) tree with one bulk-built from items, which
// must be in ascending key order; used by the Score method's Build so that
// its clustered long lists are leaf-packed instead of grown one batch at a
// time.
func (l *keyedList) bulkLoad(pool *buffer.Pool, items []btree.Item) error {
	tree, err := btree.BulkLoad(pool, items, keyedListBulkFill)
	if err != nil {
		return err
	}
	old := l.tree
	l.tree = tree
	if l.retire != nil {
		// Bulk loading produced a plain tree; re-enable COW on it and retire
		// the replaced tree's pages (they may still be pinned by published
		// snapshots).
		tree.EnableCOW(l.retire)
		return old.RetireAll()
	}
	return nil
}

// keyedView is a frozen, read-only image of a keyedList: the tree view
// captured at publication plus the counters queries report.  All query-path
// reads (Cursor, SizeBytes) run against a view so that they see exactly one
// publication regardless of concurrent writers.
type keyedView struct {
	view    btree.View
	entries int
	patches uint64
}

// Len reports the number of postings captured in the view.
func (v keyedView) Len() int { return v.entries }

// Patches reports how many posting writes the list's tree had absorbed in
// place at capture time.  Posting values are fixed-width (op byte + float32
// weight), so a Put that re-records an existing (term, sortKey, doc) posting
// — e.g. a short-list rewrite of a document already present at that rank, or
// a clustered-list weight refresh — qualifies for the patch path.
func (v keyedView) Patches() uint64 { return v.patches }

// treeCursor is a streaming pull iterator over a keyedList term, the one
// reader of both the short lists and the Score method's clustered long
// lists: a decoder over a B+-tree cursor that fills the caller's batch
// straight from the cursor's leaf image, so an early-terminating query
// reads only a prefix of the term's leaves.
type treeCursor struct {
	cur       *btree.Cursor
	prefixLen int // length of the term prefix every key of the list starts with
}

// Cursor opens term's list; Close returns its B+-tree cursor to the pool.
func (v keyedView) Cursor(term string) *treeCursor {
	prefix := keyedListPrefix(term)
	return &treeCursor{cur: v.view.Cursor(prefix, btree.PrefixEnd(prefix)), prefixLen: len(prefix)}
}

// NextBatch implements postings.BatchIterator.
func (c *treeCursor) NextBatch(out []postings.Entry) (int, error) {
	n := 0
	for n < len(out) && c.cur.More() {
		k, v := c.cur.Next()
		sortKey, doc, err := decodeKeyedListSuffix(k[c.prefixLen:])
		if err != nil {
			return n, err
		}
		op, ts, err := decodeKeyedListValue(v)
		if err != nil {
			return n, err
		}
		out[n] = postings.Entry{Doc: doc, SortKey: sortKey, TermScore: ts, Op: op}
		n++
	}
	return n, c.cur.Err()
}

// Close implements postings.Closer.  A second Close is a no-op, so the
// pooled cursor is never handed out twice.
func (c *treeCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
}

// SizeBytes estimates the serialized size of the list: key plus value bytes
// for every posting.  It is used for the Score method's Table 1 entry.
func (v keyedView) SizeBytes() (uint64, error) {
	var total uint64
	c := v.view.Cursor(nil, nil)
	defer c.Close()
	for c.More() {
		k, val := c.Next()
		total += uint64(len(k) + len(val))
	}
	return total, c.Err()
}
