package index

import (
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
// During a write batch the list runs in staged mode: Put/Delete collect in
// an ordered op log collapsed per key (last op wins, matching sequential
// semantics), and flushBatch applies the log to the B+-tree as one sorted
// UpsertBatch plus one sorted DeleteBatch, so a batch that writes many
// postings of one term rewrites each touched leaf once.
type keyedList struct {
	tree    *btree.Tree
	entries int
	// retire receives superseded pages once copy-on-write snapshots are
	// enabled (see enableCOW); nil means the list recycles pages eagerly.
	retire func(pagefile.PageID)

	staged bool
	ops    []keyedOp
	opIdx  map[string]int
	// docOps indexes staged op positions by (term, doc) so DeleteAllForDoc
	// can cancel a document's staged postings without sweeping the log.
	docOps map[string][]int
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
	return &keyedList{tree: tree}, nil
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
	return keyedView{view: l.tree.View(), entries: l.entries, patches: l.tree.Patches()}
}

// liveView captures an unsealed view of the current tree; valid only while
// no writer runs (single-threaded callers such as tests and build paths).
func (l *keyedList) liveView() keyedView {
	return keyedView{view: l.tree.View(), entries: l.entries, patches: l.tree.Patches()}
}

// Len reports the number of postings in the list.
func (l *keyedList) Len() int { return l.entries }

// Patches reports how many posting writes the list's tree absorbed in place.
// Posting values are fixed-width (op byte + float32 weight), so a Put that
// re-records an existing (term, sortKey, doc) posting — e.g. a short-list
// rewrite of a document already present at that rank, or a clustered-list
// weight refresh — qualifies for the patch path.
func (l *keyedList) Patches() uint64 { return l.tree.Patches() }

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

func encodeKeyedListValue(op postings.Op, termScore float32) []byte {
	out := []byte{byte(op)}
	return codec.PutFloat32(out, termScore)
}

func decodeKeyedListValue(data []byte) (op postings.Op, termScore float32, err error) {
	if len(data) == 0 {
		return postings.OpAdd, 0, nil
	}
	op = postings.Op(data[0])
	if len(data) >= 5 {
		ts, _, err := codec.Float32(data[1:])
		if err != nil {
			return 0, 0, err
		}
		termScore = ts
	}
	return op, termScore, nil
}

// Put inserts or replaces the posting for (term, sortKey, doc).
func (l *keyedList) Put(term string, sortKey float64, doc DocID, op postings.Op, termScore float32) error {
	key := keyedListKey(term, sortKey, doc)
	if l.staged {
		l.stageOp(term, doc, key, encodeKeyedListValue(op, termScore), false)
		return nil
	}
	inserted, err := l.tree.Upsert(key, encodeKeyedListValue(op, termScore))
	if err != nil {
		return err
	}
	if inserted {
		l.entries++
	}
	return nil
}

// Delete removes the posting for (term, sortKey, doc) if present.
func (l *keyedList) Delete(term string, sortKey float64, doc DocID) error {
	key := keyedListKey(term, sortKey, doc)
	if l.staged {
		l.stageOp(term, doc, key, nil, true)
		return nil
	}
	removed, err := l.tree.Delete(key)
	if err != nil {
		return err
	}
	if removed {
		l.entries--
	}
	return nil
}

// docOpKey addresses the staged ops of one (term, doc) pair.
func docOpKey(term string, doc DocID) string {
	return string(codec.PutOrderedUint64(codec.PutOrderedString(nil, term), uint64(doc)))
}

// stageOp records a write in the op log, collapsing onto any earlier op for
// the same key (last op wins, exactly as sequential application would).
func (l *keyedList) stageOp(term string, doc DocID, key, val []byte, del bool) {
	if i, ok := l.opIdx[string(key)]; ok {
		l.ops[i].val = val
		l.ops[i].del = del
		return
	}
	l.opIdx[string(key)] = len(l.ops)
	dk := docOpKey(term, doc)
	l.docOps[dk] = append(l.docOps[dk], len(l.ops))
	l.ops = append(l.ops, keyedOp{key: key, val: val, del: del})
}

// DeleteAllForDoc removes every posting of the given document under the
// given term, regardless of sort key (used by document deletion, which must
// purge short lists so that reused IDs are safe, Appendix A.2).
func (l *keyedList) DeleteAllForDoc(term string, doc DocID) error {
	var keys [][]byte
	prefix := keyedListPrefix(term)
	err := l.tree.AscendPrefix(prefix, func(k, v []byte) bool {
		_, d, err := decodeKeyedListSuffix(k[len(prefix):])
		if err == nil && d == doc {
			keys = append(keys, append([]byte(nil), k...))
		}
		return true
	})
	if err != nil {
		return err
	}
	if l.staged {
		// Cancel staged postings of this (term, doc) that are not in the
		// tree yet; docOps addresses them directly.
		for _, i := range l.docOps[docOpKey(term, doc)] {
			l.ops[i].val = nil
			l.ops[i].del = true
		}
		for _, k := range keys {
			l.stageOp(term, doc, k, nil, true)
		}
		return nil
	}
	for _, k := range keys {
		removed, err := l.tree.Delete(k)
		if err != nil {
			return err
		}
		if removed {
			l.entries--
		}
	}
	return nil
}

// beginBatch enters staged mode.
func (l *keyedList) beginBatch() {
	l.staged = true
	if l.opIdx == nil {
		l.opIdx = map[string]int{}
		l.docOps = map[string][]int{}
	}
}

// flushBatch applies the op log with grouped tree writes and leaves staged
// mode.
func (l *keyedList) flushBatch() error {
	l.staged = false
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
		l.entries = l.tree.Len()
		return err
	}
	if len(dels) > 0 {
		if _, err := l.tree.DeleteBatch(dels); err != nil {
			l.entries = l.tree.Len()
			return err
		}
	}
	l.entries = l.tree.Len()
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
// its clustered long lists are leaf-packed instead of grown one Upsert at a
// time.
func (l *keyedList) bulkLoad(pool *buffer.Pool, items []btree.Item) error {
	tree, err := btree.BulkLoadFill(pool, items, keyedListBulkFill)
	if err != nil {
		return err
	}
	old := l.tree
	l.tree = tree
	l.entries = tree.Len()
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
// reads (Collect, Iterator, Cursor, SizeBytes) run against a view so that
// they see exactly one publication regardless of concurrent writers.
type keyedView struct {
	view    btree.View
	entries int
	patches uint64
}

// Len reports the number of postings captured in the view.
func (v keyedView) Len() int { return v.entries }

// Patches reports the in-place patch count at capture time.
func (v keyedView) Patches() uint64 { return v.patches }

// Collect materializes the postings of one term in (sortKey desc, doc asc)
// order.  Short lists are small by design (that is the point of the
// threshold), so materializing them per query is cheap; the Score method
// overrides this with a streaming cursor (see treeCursor).
func (v keyedView) Collect(term string) ([]postings.Entry, error) {
	var out []postings.Entry
	var innerErr error
	prefix := keyedListPrefix(term)
	err := v.view.AscendPrefix(prefix, func(k, val []byte) bool {
		sortKey, doc, err := decodeKeyedListSuffix(k[len(prefix):])
		if err != nil {
			innerErr = err
			return false
		}
		op, ts, err := decodeKeyedListValue(val)
		if err != nil {
			innerErr = err
			return false
		}
		out = append(out, postings.Entry{
			Doc:       doc,
			SortKey:   sortKey,
			CID:       int32(sortKey),
			TermScore: ts,
			Op:        op,
			FromShort: true,
		})
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Iterator returns a pull iterator over one term's postings, materialized up
// front.
func (v keyedView) Iterator(term string) (*postings.SliceIterator, error) {
	entries, err := v.Collect(term)
	if err != nil {
		return nil, err
	}
	return postings.NewSliceIterator(entries), nil
}

// Collect materializes one term's postings from the live tree; single-
// threaded callers only.
func (l *keyedList) Collect(term string) ([]postings.Entry, error) {
	return l.liveView().Collect(term)
}

// Iterator mirrors keyedView.Iterator over the live tree.
func (l *keyedList) Iterator(term string) (*postings.SliceIterator, error) {
	return l.liveView().Iterator(term)
}

// treeCursor is a streaming pull iterator over a keyedList term, used for
// the Score method's long lists where materializing the whole list would
// defeat early termination.  It pulls postings in batches through bounded
// range scans so that an early-terminating query touches only a prefix of
// the B+-tree leaves.
type treeCursor struct {
	view      btree.View
	fromShort bool
	prefixLen int    // length of the term prefix every key of the list starts with
	end       []byte // exclusive end of the term's key range

	batch   []postings.Entry
	pos     int
	nextKey []byte // resume position (exclusive)
	done    bool
}

// cursorBatchSize is the number of postings fetched per refill; roughly one
// leaf page worth and one downstream batch.
const cursorBatchSize = postings.BatchSize

func (v keyedView) Cursor(term string, fromShort bool) *treeCursor {
	prefix := keyedListPrefix(term)
	return &treeCursor{view: v.view, fromShort: fromShort, prefixLen: len(prefix), end: prefixEnd(prefix), nextKey: prefix}
}

// Cursor streams one term's postings from the live tree; single-threaded
// callers only.
func (l *keyedList) Cursor(term string, fromShort bool) *treeCursor {
	return l.liveView().Cursor(term, fromShort)
}

func (c *treeCursor) refill() error {
	c.batch = c.batch[:0]
	c.pos = 0
	if c.done {
		return nil
	}
	var innerErr error
	var lastKey []byte
	count := 0
	stopped := false
	err := c.view.AscendRange(c.nextKey, c.end, func(k, v []byte) bool {
		if count >= cursorBatchSize {
			// Remember where to resume: the current key (it has not been
			// consumed into the batch).
			c.nextKey = append(c.nextKey[:0], k...)
			stopped = true
			return false
		}
		sortKey, doc, err := decodeKeyedListSuffix(k[c.prefixLen:])
		if err != nil {
			innerErr = err
			return false
		}
		op, ts, err := decodeKeyedListValue(v)
		if err != nil {
			innerErr = err
			return false
		}
		c.batch = append(c.batch, postings.Entry{
			Doc:       doc,
			SortKey:   sortKey,
			CID:       int32(sortKey),
			TermScore: ts,
			Op:        op,
			FromShort: c.fromShort,
		})
		lastKey = append(lastKey[:0], k...)
		count++
		return true
	})
	if innerErr != nil {
		return innerErr
	}
	if err != nil {
		return err
	}
	if !stopped {
		if count < cursorBatchSize {
			c.done = true
		} else {
			// The scan ended exactly at a full batch, so there was no extra
			// key to stash as the resume point.  Resume just past the last
			// consumed key; if nothing follows, the next refill comes back
			// empty and finishes the cursor.
			c.nextKey = append(append(c.nextKey[:0], lastKey...), 0)
		}
	}
	return nil
}

// NextBatch implements postings.BatchIterator: postings are bulk-copied out
// of the cursor's range-scan batch, one B+-tree leaf run at a time.
func (c *treeCursor) NextBatch(out []postings.Entry) (int, error) {
	n := 0
	for n < len(out) {
		if c.pos >= len(c.batch) {
			if c.done {
				break
			}
			if err := c.refill(); err != nil {
				return n, err
			}
			if len(c.batch) == 0 {
				continue
			}
		}
		copied := copy(out[n:], c.batch[c.pos:])
		n += copied
		c.pos += copied
	}
	return n, nil
}

// prefixEnd mirrors btree.prefixEnd for range termination.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// SizeBytes estimates the serialized size of the list: key plus value bytes
// for every posting.  It is used for the Score method's Table 1 entry.
func (v keyedView) SizeBytes() (uint64, error) {
	var total uint64
	err := v.view.Ascend(func(k, val []byte) bool {
		total += uint64(len(k) + len(val))
		return true
	})
	return total, err
}

// SizeBytes mirrors keyedView.SizeBytes over the live tree.
func (l *keyedList) SizeBytes() (uint64, error) {
	return l.liveView().SizeBytes()
}
