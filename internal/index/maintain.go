package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/text"
)

// This file holds the maintenance paths every kind shares: the bulk build's
// common half and the per-op handlers of Appendix A that ApplyUpdates
// dispatches to, which differ between kinds only in the sort key a posting is
// filed under (base.keyOf) and in whether the Score rows record it.  The
// handlers write into the overlays only; ApplyUpdates flushes and publishes.
// The threshold family overrides applyScore (Algorithm 1), and
// the Score method overrides applyScore, applyDelete and applyContent,
// because it moves postings in place in its long lists.

// Build implements Method: it bulk-loads a fresh method and publishes it.
func (b *base) Build(src DocSource, scores ScoreFunc) error {
	defer b.publish()
	return b.build(src, scores, nil)
}

// build accumulates the corpus, lets the kind derive its list keys, loads
// the Score table — beside the deleted markers a merge carries over, dead,
// in document order — and hands over to the kind for its long lists,
// without publishing (MergeShortLists publishes once it has retired the
// superseded generation).
func (b *base) build(src DocSource, scores ScoreFunc, dead []deadRow) error {
	b.dictChanged()
	b.src = src
	bc, err := accumulate(src, scores, b.dict)
	if err != nil {
		return err
	}
	b.self.prepare(bc)
	if err := b.populateScoreTable(bc, dead); err != nil {
		return err
	}
	return b.self.buildLists(bc)
}

// prepare is the ID family's and the Score method's kindMethod step before
// the Score table is loaded: their list keys need no directory.
func (b *base) prepare(*builtCorpus) {}

// docTokens returns a document's token stream for the maintenance paths that
// need one (threshold crossings, the Score method's posting moves, deletes,
// merges).  The document source is the only copy of a document's content the
// index reads: when it lacks the document the error wraps ErrUnknownDocument
// and, if the source gave one, the source's error.
func (b *base) docTokens(doc DocID) ([]string, error) {
	if b.src == nil {
		return nil, fmt.Errorf("%w: %d has no available content", ErrUnknownDocument, doc)
	}
	tokens, err := b.src.Tokens(doc)
	if err != nil {
		return nil, fmt.Errorf("%w: %d has no available content: %w", ErrUnknownDocument, doc, err)
	}
	return tokens, nil
}

// deletedTokens is the content a delete uncounts: the tokens the op carried,
// else whatever the document source still holds.
func (b *base) deletedTokens(doc DocID, carried []string) ([]string, error) {
	if carried != nil {
		return carried, nil
	}
	return b.docTokens(doc)
}

// liveRow is the one liveness check every handler but insert begins with: the
// document's Score-table row, or ErrUnknownDocument for a document the index
// has never seen or has deleted — no op resurrects a deleted document or
// deletes it twice.  Inside a batch the overlay answers, so the check sees
// the batch's earlier ops.
func (b *base) liveRow(doc DocID) (docRow, error) {
	r, ok, err := b.score.Get(doc)
	if err != nil {
		return docRow{}, err
	}
	if !ok || r.deleted {
		return docRow{}, fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	return r, nil
}

// scoreChange is how every score handler begins: the document's live
// Score-table row, and whether newScore changes it.  An unchanged score is
// not an update: the handler counts and writes nothing.  The engine relies
// on this: it forwards every re-evaluated score and keeps no copy of its
// own to compare against.
func (b *base) scoreChange(doc DocID, newScore float64) (old docRow, changed bool, err error) {
	row, err := b.liveRow(doc)
	return row, err == nil && row.val != newScore, err
}

// setScore counts a score update and stages the document's new Score row.
// A handler calls it only once nothing can fail any more, so a failed
// update changes nothing.
func (b *base) setScore(doc DocID, r docRow) {
	b.counters.scoreUpdates.Add(1)
	b.score.Put(doc, r)
}

// applyScore is the ID family's score update: the only work is one
// Score-table write.
func (b *base) applyScore(doc DocID, newScore float64) error {
	_, changed, err := b.scoreChange(doc, newScore)
	if changed {
		b.setScore(doc, docRow{val: newScore})
	}
	return err
}

// applyInsert is Appendix A.2's insert: the new document's postings go
// straight to the keyed list, at the key of its score.  In the threshold
// family that is a short list, so the Score row records the key and sets
// the short-list bit.
func (b *base) applyInsert(doc DocID, tokens []string, score float64) error {
	b.dictChanged()
	key := b.keyOf(score)
	b.score.Put(doc, docRow{val: score, key: key, short: b.kind.keyedRows})
	weights := docTermWeights(tokens)
	distinct := make([]string, 0, len(weights))
	for _, tw := range weights {
		b.lists.Put(tw.term, key, doc, postings.OpAdd, tw.w)
		distinct = append(distinct, tw.term)
	}
	if b.kind.clustered {
		// The Score method's keyed list is its long list.
		b.counters.longListPostingsWritten.Add(uint64(len(distinct)))
	} else {
		b.counters.shortListPostingsWritten.Add(uint64(len(distinct)))
	}
	b.dict.AddDocumentTerms(distinct)
	b.numDocs.Add(1)
	b.ceil.raise(key, score)
	return nil
}

// applyDelete is Appendix A.2's delete: the Score table keeps a deleted
// marker, which is what queries filter on, every short-list posting of the
// document is purged so that a reused ID is safe (so the marker carries no
// short-list bit), and its terms' document frequencies drop, so that TF-IDF
// and TermStats count live documents only.
// tokens is the deleted document's content (see Update.OldTokens).
func (b *base) applyDelete(doc DocID, tokens []string) error {
	row, err := b.liveRow(doc)
	if err != nil {
		return err
	}
	// The purge goes by document, not by the terms it holds now: a content
	// edit leaves REM postings under the terms the document lost.  It stages
	// nothing when it fails, so a failed delete changes nothing.
	if err := b.lists.DeleteDoc(doc); err != nil {
		return err
	}
	b.dictChanged()
	b.score.Put(doc, docRow{val: row.val, key: row.key, deleted: true})
	// Without content the document's terms cannot be uncounted: their df
	// keeps counting it.  The deleted marker alone keeps it out of every
	// result.  With content, df drops here — the liveness check above makes
	// a delete run at most once per document.
	if tokens, err := b.deletedTokens(doc, tokens); err == nil {
		b.dict.RemoveDocumentTerms(text.DistinctTerms(tokens))
	}
	b.numDocs.Add(-1)
	return nil
}

// applyContent is Appendix A.1's content update: added terms gain ADD
// postings and removed terms gain REM postings in the keyed list, at the
// document's current list position so that they align with its other
// postings during the merge.
func (b *base) applyContent(doc DocID, oldTokens, newTokens []string) error {
	key, err := b.listPosition(doc)
	if err != nil {
		return err
	}
	b.dictChanged()
	added, removed := diffTerms(oldTokens, newTokens)
	newWeights := text.TermFrequencies(newTokens)
	for _, term := range added {
		w := text.NormalizedTF(newWeights[term], len(newTokens))
		b.lists.Put(term, key, doc, postings.OpAdd, w)
	}
	for _, term := range removed {
		b.lists.Put(term, key, doc, postings.OpRem, 0)
	}
	b.counters.shortListPostingsWritten.Add(uint64(len(added) + len(removed)))
	b.dict.AddDocumentTerms(added)
	b.dict.RemoveDocumentTerms(removed)
	return nil
}

// listPosition returns the sort key under which a live document's postings
// currently appear: the key its Score row records (threshold family), else
// the key of its score.
func (b *base) listPosition(doc DocID) (float64, error) {
	row, err := b.liveRow(doc)
	if err != nil || b.kind.keyedRows {
		return row.key, err
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
