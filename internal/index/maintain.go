package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/text"
)

// This file holds the maintenance paths every kind shares: the bulk build's
// common half and the incremental document paths of Appendix A, which differ
// between kinds only in the sort key a posting is filed under (base.keyOf)
// and in whether a ListScore/ListChunk table rides along.  The Score method
// overrides DeleteDocument and UpdateContent, because it moves postings in
// place in its long lists.

// Build implements Method: it accumulates the corpus, loads the Score table
// and hands over to the kind for its long lists.
func (b *base) Build(src DocSource, scores ScoreFunc) error {
	b.dictChanged()
	defer b.publish()
	b.src = src
	bc, err := accumulate(src, scores, b.dict)
	if err != nil {
		return err
	}
	if err := b.populateScoreTable(bc); err != nil {
		return err
	}
	return b.self.buildLists(bc)
}

// docTokens returns a document's token stream for the maintenance paths that
// need one (threshold crossings, the Score method's posting moves, deletes,
// merges): from the document source first, then from the cache of
// incrementally inserted documents.  When neither has it the error wraps
// ErrUnknownDocument and, if the source failed, the source's error.
func (b *base) docTokens(doc DocID) ([]string, error) {
	var srcErr error
	if b.src != nil {
		tokens, err := b.src.Tokens(doc)
		if err == nil {
			return tokens, nil
		}
		srcErr = err
	}
	if cached, ok := b.knownTokens[doc]; ok {
		return cached, nil
	}
	if srcErr != nil {
		return nil, fmt.Errorf("%w: %d has no available content: %w", ErrUnknownDocument, doc, srcErr)
	}
	return nil, fmt.Errorf("%w: %d has no available content", ErrUnknownDocument, doc)
}

// setScore is how every UpdateScore begins: it replaces the document's score
// in the Score table and returns the one it held.  A document the index has
// never seen or has deleted is ErrUnknownDocument — a score update must not
// resurrect a deleted document.  An unchanged score is not an update: changed
// is false, nothing was counted or written, and the caller returns without
// publishing (a publication seals the trees, so the next write would pay a
// copy-on-write clone for nothing).  Inside a batch the staged overlay
// answers the read, so the comparison is against the batch's earlier writes.
// The engine relies on this: it forwards every re-evaluated score and keeps
// no copy of its own to compare against.
func (b *base) setScore(doc DocID, newScore float64) (oldScore float64, changed bool, err error) {
	oldScore, live, err := rowScore(b.score.Get(doc))
	if err != nil {
		return 0, false, err
	}
	if !live {
		return 0, false, fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	if oldScore == newScore {
		return oldScore, false, nil
	}
	b.counters.scoreUpdates.Add(1)
	if err := b.score.Put(doc, docRow{val: newScore}); err != nil {
		return oldScore, false, err
	}
	return oldScore, true, nil
}

// InsertDocument implements Method (Appendix A.2): the new document's
// postings go straight to the keyed list, at the key of its score.
func (b *base) InsertDocument(doc DocID, tokens []string, score float64) error {
	b.dictChanged()
	defer b.publish()
	if err := b.score.Put(doc, docRow{val: score}); err != nil {
		return err
	}
	key := b.keyOf(score)
	weights := docTermWeights(tokens)
	distinct := make([]string, 0, len(weights))
	for _, tw := range weights {
		if err := b.lists.Put(tw.term, key, doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		distinct = append(distinct, tw.term)
	}
	if b.kind.clustered {
		// The Score method's keyed list is its long list.
		b.counters.longListPostingsWritten.Add(uint64(len(distinct)))
	} else {
		b.counters.shortListPostingsWritten.Add(uint64(len(distinct)))
	}
	b.dict.AddDocumentTerms(distinct)
	b.knownTokens[doc] = distinct
	b.numDocs.Add(1)
	if b.table == nil {
		return nil
	}
	return b.table.Put(doc, docRow{val: key, flag: true})
}

// DeleteDocument implements Method (Appendix A.2): the Score table keeps a
// deleted marker, which is what queries filter on, and the document's
// short-list postings are purged so that a reused ID is safe.
func (b *base) DeleteDocument(doc DocID) error {
	b.dictChanged()
	defer b.publish()
	row, ok, err := b.score.Get(doc)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	if err := b.score.MarkDeleted(doc); err != nil {
		return err
	}
	// Without content there is nothing to purge by; the deleted marker alone
	// keeps the document out of every result.
	if tokens, err := b.docTokens(doc); err == nil {
		for _, term := range text.DistinctTerms(tokens) {
			if err := b.lists.DeleteAllForDoc(term, doc); err != nil {
				return err
			}
		}
	}
	if b.table != nil {
		// Leave an entry pointing at the long-list copy so that the query
		// path probes the Score table (and sees the deleted flag) instead of
		// trusting the stale long-list position.
		entry, exists, err := b.table.Get(doc)
		if err != nil {
			return err
		}
		key := b.keyOf(row.val)
		if exists {
			key = entry.val
		}
		if err := b.table.Put(doc, docRow{val: key}); err != nil {
			return err
		}
	}
	delete(b.knownTokens, doc)
	b.numDocs.Add(-1)
	return nil
}

// UpdateContent implements Method (Appendix A.1): added terms gain ADD
// postings and removed terms gain REM postings in the keyed list, at the
// document's current list position so that they align with its other
// postings during the merge.
func (b *base) UpdateContent(doc DocID, oldTokens, newTokens []string) error {
	b.dictChanged()
	defer b.publish()
	key, err := b.listPosition(doc)
	if err != nil {
		return err
	}
	added, removed := diffTerms(oldTokens, newTokens)
	newWeights := text.TermFrequencies(newTokens)
	for _, term := range added {
		w := text.NormalizedTF(newWeights[term], len(newTokens))
		if err := b.lists.Put(term, key, doc, postings.OpAdd, w); err != nil {
			return err
		}
		b.counters.shortListPostingsWritten.Add(1)
	}
	for _, term := range removed {
		if err := b.lists.Put(term, key, doc, postings.OpRem, 0); err != nil {
			return err
		}
		b.counters.shortListPostingsWritten.Add(1)
	}
	b.dict.AddDocumentTerms(added)
	b.dict.RemoveDocumentTerms(removed)
	return nil
}

// listPosition returns the sort key under which the document's postings
// currently appear: its ListScore/ListChunk entry if it has one, else the
// key of its score.  A document the index has never seen is an error.
func (b *base) listPosition(doc DocID) (float64, error) {
	if b.table != nil {
		entry, exists, err := b.table.Get(doc)
		if err != nil {
			return 0, err
		}
		if exists {
			return entry.val, nil
		}
	}
	row, ok, err := b.score.Get(doc)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	return b.keyOf(row.val), nil
}

// diffTerms computes the added and removed distinct terms between two token
// streams (Appendix A.1's Tnew \ Told and Told \ Tnew).
func diffTerms(oldTokens, newTokens []string) (added, removed []string) {
	oldSet := map[string]bool{}
	for _, t := range oldTokens {
		oldSet[t] = true
	}
	newSet := map[string]bool{}
	for _, t := range newTokens {
		newSet[t] = true
	}
	for t := range newSet {
		if !oldSet[t] {
			added = append(added, t)
		}
	}
	for t := range oldSet {
		if !newSet[t] {
			removed = append(removed, t)
		}
	}
	return added, removed
}
