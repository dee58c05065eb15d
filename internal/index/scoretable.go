package index

import (
	"fmt"

	"svrdb/internal/codec"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// scoreTable is the paper's Score table: the single, collection-wide table
// mapping document IDs to their latest SVR score, indexed by ID so that
// score lookups during query processing are cheap (§4.2.1).  A deleted flag
// supports document deletion as described in Appendix A.2.
//
// Every row is fixed-width (8-byte key, 9-byte value), so Set, MarkDeleted
// and the staged flush all qualify for the B+-tree's in-place leaf patch
// fast path: an existing document's score update overwrites 9 bytes in the
// pinned leaf page instead of reserializing the whole leaf.  This is the
// heart of Algorithm 1's hot loop for every method.
//
// During a write batch (Method.ApplyUpdates) the table runs in staged mode:
// writes land in an in-memory overlay that reads consult first, and
// flushBatch applies the overlay to the B+-tree as one sorted UpsertBatch,
// so a batch touching a leaf many times rewrites it once.
type scoreTable struct {
	tree *btree.Tree
	// retire receives superseded pages once COW snapshots are enabled.
	retire func(pagefile.PageID)

	staged  bool
	pending map[DocID]scoreVal
}

// scoreVal is the decoded value of one Score-table row.
type scoreVal struct {
	score   float64
	deleted bool
}

func newScoreTable(pool *buffer.Pool) (*scoreTable, error) {
	tree, err := btree.New(pool)
	if err != nil {
		return nil, err
	}
	return &scoreTable{tree: tree}, nil
}

// enableCOW switches the table's tree to copy-on-write publication.
func (s *scoreTable) enableCOW(retire func(pagefile.PageID)) {
	s.retire = retire
	s.tree.EnableCOW(retire)
}

// snapshotView seals the tree and captures a frozen scoreView for
// publication.
func (s *scoreTable) snapshotView() scoreView {
	s.tree.Seal()
	return scoreView{view: s.tree.View(), patches: s.tree.Patches(), len: s.tree.Len()}
}

// scoreView is a frozen, read-only image of the Score table.
type scoreView struct {
	view    btree.View
	patches uint64
	len     int
}

// Get resolves a document's score in the view.
func (v scoreView) Get(doc DocID) (score float64, deleted bool, ok bool, err error) {
	key := docKey(doc)
	data, found, err := v.view.Get(key[:])
	if err != nil || !found {
		return 0, false, false, err
	}
	score, deleted, err = decodeScoreEntry(data)
	if err != nil {
		return 0, false, false, err
	}
	return score, deleted, true, nil
}

// Len reports the entry count at capture time.
func (v scoreView) Len() int { return v.len }

// Patches reports the in-place patch count at capture time.
func (v scoreView) Patches() uint64 { return v.patches }

// docKey is the 8-byte order-preserving key of a document in the Score and
// ListScore/ListChunk tables, returned by value so that lookups build it on
// the stack; scoreTableKey and listTableKey are its heap forms for the write
// paths, which hand keys to the tree to keep.
func docKey(doc DocID) (key [8]byte) {
	codec.PutOrderedUint64(key[:0], uint64(doc))
	return key
}

func scoreTableKey(doc DocID) []byte {
	key := docKey(doc)
	return key[:]
}

func encodeScoreEntry(score float64, deleted bool) []byte {
	out := codec.PutFloat64(nil, score)
	if deleted {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

func decodeScoreEntry(data []byte) (score float64, deleted bool, err error) {
	s, n, err := codec.Float64(data)
	if err != nil {
		return 0, false, err
	}
	if n >= len(data) {
		return 0, false, fmt.Errorf("index: score entry missing deleted flag")
	}
	return s, data[n] == 1, nil
}

// Set stores the score of a document, clearing its deleted flag.
func (s *scoreTable) Set(doc DocID, score float64) error {
	return s.put(doc, score, false)
}

func (s *scoreTable) put(doc DocID, score float64, deleted bool) error {
	if s.staged {
		s.pending[doc] = scoreVal{score: score, deleted: deleted}
		return nil
	}
	return s.tree.Put(scoreTableKey(doc), encodeScoreEntry(score, deleted))
}

// Get returns the current score of a document.
func (s *scoreTable) Get(doc DocID) (score float64, deleted bool, ok bool, err error) {
	if s.staged {
		if v, hit := s.pending[doc]; hit {
			return v.score, v.deleted, true, nil
		}
	}
	key := docKey(doc)
	data, found, err := s.tree.Get(key[:])
	if err != nil || !found {
		return 0, false, false, err
	}
	score, deleted, err = decodeScoreEntry(data)
	if err != nil {
		return 0, false, false, err
	}
	return score, deleted, true, nil
}

// scoreProbe is the per-query Score-table reader.  It lives in the pooled
// queryCtx, which thereby owns the probe's leaf image across queries; bind
// rebinds it to the query's snapshot.  Every score a query resolves goes
// through Get or Descend, so lookups is the query's QueryResult.ScoreLookups.
type scoreProbe struct {
	v       scoreView
	p       btree.Probe
	lookups int
}

// bind points the probe at a frozen Score table, keeping its buffers, and
// zeroes the lookup count.  The zero scoreView unbinds it.
func (sp *scoreProbe) bind(v scoreView) {
	sp.v = v
	sp.p.Reset(v.view)
	sp.lookups = 0
}

// Get resolves a document's latest score, reporting live=false for deleted
// or unknown documents.  It exploits the ascending document order of
// candidate resolution: consecutive lookups reuse the B+-tree leaf of the
// previous one instead of re-descending and re-scanning it.
func (sp *scoreProbe) Get(doc DocID) (score float64, live bool, err error) {
	sp.lookups++
	key := docKey(doc)
	data, found, err := sp.p.Get(key[:])
	if err != nil || !found {
		return 0, false, err
	}
	score, deleted, err := decodeScoreEntry(data)
	if err != nil {
		return 0, false, err
	}
	return score, !deleted, nil
}

// Descend is Get by a full descent of the snapshot's tree, for candidates
// that arrive in no document order, where a cached leaf rarely helps.
func (sp *scoreProbe) Descend(doc DocID) (score float64, live bool, err error) {
	sp.lookups++
	score, deleted, ok, err := sp.v.Get(doc)
	return score, ok && !deleted, err
}

// MarkDeleted flags a document as deleted without discarding its score.
func (s *scoreTable) MarkDeleted(doc DocID) error {
	score, _, ok, err := s.Get(doc)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	return s.put(doc, score, true)
}

// beginBatch enters staged mode: subsequent writes collect in the overlay.
func (s *scoreTable) beginBatch() {
	s.staged = true
	if s.pending == nil {
		s.pending = map[DocID]scoreVal{}
	}
}

// flushBatch applies the overlay to the tree as one grouped UpsertBatch
// (which sorts the keys itself) and leaves staged mode.
func (s *scoreTable) flushBatch() error {
	s.staged = false
	if len(s.pending) == 0 {
		return nil
	}
	items := make([]btree.Item, 0, len(s.pending))
	for doc, v := range s.pending {
		items = append(items, btree.Item{Key: scoreTableKey(doc), Value: encodeScoreEntry(v.score, v.deleted)})
	}
	clear(s.pending)
	_, err := s.tree.UpsertBatch(items)
	return err
}

// scoreTableBulkFill is the node fill target for bulk-loading the Score
// table.  Unlike the read-mostly long lists, the Score table absorbs one
// in-place leaf rewrite per score update, and a leaf rewrite costs
// proportionally to leaf size — so the update-hot table is loaded at
// roughly the occupancy ascending inserts would have produced rather than
// packed dense.
const scoreTableBulkFill = 0.55

// bulkLoad replaces the (empty) tree with one bulk-built from items, which
// must be in ascending document order.  Build paths use it so populating
// the Score table costs one left-to-right leaf-packing pass instead of one
// descent per document.
func (s *scoreTable) bulkLoad(pool *buffer.Pool, items []btree.Item) error {
	tree, err := btree.BulkLoadFill(pool, items, scoreTableBulkFill)
	if err != nil {
		return err
	}
	old := s.tree
	s.tree = tree
	if s.retire != nil {
		tree.EnableCOW(s.retire)
		return old.RetireAll()
	}
	return nil
}

// Patches reports how many writes the table's tree absorbed in place.
func (s *scoreTable) Patches() uint64 { return s.tree.Patches() }

// Len reports the number of entries (including deleted markers).
func (s *scoreTable) Len() int { return s.tree.Len() }

// ForEach visits every (doc, score, deleted) triple in document order.
func (s *scoreTable) ForEach(visit func(doc DocID, score float64, deleted bool) bool) error {
	var innerErr error
	err := s.tree.Ascend(func(k, v []byte) bool {
		id, _, err := codec.OrderedUint64(k)
		if err != nil {
			innerErr = err
			return false
		}
		score, deleted, err := decodeScoreEntry(v)
		if err != nil {
			innerErr = err
			return false
		}
		return visit(DocID(id), score, deleted)
	})
	if innerErr != nil {
		return innerErr
	}
	return err
}
