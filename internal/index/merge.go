package index

import (
	"fmt"
	"sort"

	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
)

// This file implements the offline merge the paper assumes happens
// periodically: "the short lists will be periodically merged with the long
// lists bringing down document insertion cost again" (§A.3), and §5.1 notes
// the merge runs offline and is excluded from the measured update costs.
//
// MergeShortLists rebuilds the long inverted lists from the current state of
// the collection — the latest scores in the Score table and the latest
// document contents — and empties the short lists and the ListScore/ListChunk
// table, returning the index to its freshly-bulk-loaded shape.  The merge
// runs under the serialized writer with publication suppressed, so readers
// stay on the pre-merge snapshot throughout and flip to the merged index
// atomically at the end; the superseded generation — the old list trees and
// the old long-list blobs — is retired to the epoch manager and its pages are
// recycled once the last pre-merge reader leaves.

// snapshotSource materializes the live collection for a rebuild: every
// non-deleted document in the Score table, with its current tokens and
// current score.  It implements DocSource.
type snapshotSource struct {
	docs   []DocID
	tokens map[DocID][]string
	scores map[DocID]float64
}

func (s *snapshotSource) NumDocs() int { return len(s.docs) }

func (s *snapshotSource) ForEach(fn func(doc DocID, tokens []string) error) error {
	for _, doc := range s.docs {
		if err := fn(doc, s.tokens[doc]); err != nil {
			return err
		}
	}
	return nil
}

func (s *snapshotSource) Tokens(doc DocID) ([]string, error) {
	tokens, ok := s.tokens[doc]
	if !ok {
		return nil, fmt.Errorf("%w: %d not in snapshot", ErrUnknownDocument, doc)
	}
	return tokens, nil
}

func (s *snapshotSource) scoreFunc() ScoreFunc {
	return func(doc DocID) float64 { return s.scores[doc] }
}

// snapshot collects the live collection using the supplied content accessor.
func (b *base) snapshot(tokensOf func(DocID) ([]string, error)) (*snapshotSource, error) {
	snap := &snapshotSource{tokens: map[DocID][]string{}, scores: map[DocID]float64{}}
	var iterErr error
	err := b.score.ForEach(func(doc DocID, r docRow) bool {
		if r.flag {
			return true
		}
		tokens, err := tokensOf(doc)
		if err != nil {
			iterErr = fmt.Errorf("index: merge cannot read content of document %d: %w", doc, err)
			return false
		}
		snap.docs = append(snap.docs, doc)
		snap.tokens[doc] = tokens
		snap.scores[doc] = r.val
		return true
	})
	if iterErr != nil {
		return nil, iterErr
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(snap.docs, func(i, j int) bool { return snap.docs[i] < snap.docs[j] })
	return snap, nil
}

// MergeShortLists implements Method for every kind: snapshot the live
// collection, swap in fresh mutable structures and an empty long-list
// generation, rebuild through the kind's Build — the ID family absorbs its
// auxiliary postings, Score-Threshold re-sorts by current score, the Chunk
// family derives new chunk boundaries from the current score distribution
// and rewrites its fancy lists — then retire the superseded generation.
func (b *base) MergeShortLists() error {
	if b.kind.clustered {
		// The Score method maintains its lists in place: nothing to merge.
		return nil
	}
	snap, err := b.snapshot(b.docTokens)
	if err != nil {
		return err
	}
	lists, err := newKeyedList(b.cfg.Pool)
	if err != nil {
		return err
	}
	lists.enableCOW(b.retirePage)
	var table *docTable
	if b.table != nil {
		if table, err = newDocTable(b.cfg.Pool); err != nil {
			return err
		}
		table.enableCOW(b.retirePage)
	}
	origSrc := b.src
	oldLists, oldTable, oldRefs, oldFancyRefs := b.lists, b.table, b.longRefs, b.fancyRefs
	b.suppress = true
	defer func() {
		b.src = origSrc
		b.suppress = false
		b.publish()
	}()
	b.longRefs = map[string]blob.Ref{}
	b.longBytes, b.longRawBytes, b.fancyBytes = 0, 0, 0
	b.dict = text.NewDictionary()
	b.lists, b.table = lists, table
	if err := b.Build(snap, snap.scoreFunc()); err != nil {
		return err
	}
	if err := oldLists.tree.RetireAll(); err != nil {
		return err
	}
	if oldTable != nil {
		if err := oldTable.tree.RetireAll(); err != nil {
			return err
		}
	}
	b.retireBlobRefs(oldRefs)
	b.retireBlobRefs(oldFancyRefs)
	return nil
}
