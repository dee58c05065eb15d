package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/storage/btree"
	"svrdb/internal/text"
)

// scoreMethod implements the Score method of §4.2.2: every term's inverted
// list is kept in exact descending-score order in a clustered B+-tree, which
// makes top-k queries fast (scan a prefix, stop after k results) but makes
// score updates extremely expensive — every distinct term of the updated
// document needs its posting moved, one random B+-tree probe per term.
//
// The paper uses this method as the query-optimal / update-pathological end
// of the spectrum; Table 7 shows its per-update cost is orders of magnitude
// above every other method, which is why the evaluation drops it early.
//
// The keyed list is the long list here, filed under the exact score, so a
// document insert is the shared one; deletes and content updates move
// postings in place instead of leaving REM markers for a merge that never
// happens.
type scoreMethod struct {
	*base
}

func newScoreMethod(b *base) kindMethod {
	b.keyOf = func(score float64) float64 { return score }
	return &scoreMethod{base: b}
}

// buildLists implements kindMethod.  Build runs on a fresh index (and the
// Score method has nothing to merge), so the clustered lists are always
// bulk-loaded leaf by leaf: (term, score desc, doc) is exactly the tree's key
// order, so the per-term score-sorted runs concatenate into one sorted run
// and no per-posting descent is paid.
func (m *scoreMethod) buildLists(bc *builtCorpus) error {
	var items []btree.Item
	ranks := bc.listRanks(m.keyOf)
	var entries []postings.Entry
	for _, term := range bc.terms() {
		entries = bc.listEntries(entries[:0], term, ranks)
		for _, e := range entries {
			items = append(items, btree.Item{
				Key:   keyedListKey(term, e.SortKey, e.Doc),
				Value: encodeKeyedListValue(postings.OpAdd, e.TermScore),
			})
		}
	}
	if err := m.lists.bulkLoad(m.cfg.Pool, items); err != nil {
		return fmt.Errorf("index: bulk-load Score lists: %w", err)
	}
	return nil
}

// applyScore implements kindMethod: the posting of every distinct term of
// the document must be deleted at the old score position and reinserted at
// the new one, which is exactly the cost the paper's Figure 7 measures.
func (m *scoreMethod) applyScore(doc DocID, newScore float64) error {
	old, changed, err := m.scoreChange(doc, newScore)
	if !changed {
		return err
	}
	oldScore := old.val
	tokens, err := m.docTokens(doc)
	if err != nil {
		return fmt.Errorf("index: Score method needs document %d content to move its postings: %w", doc, err)
	}
	m.setScore(doc, docRow{val: newScore})
	for _, tw := range docTermWeights(tokens) {
		m.lists.Delete(tw.term, oldScore, doc)
		m.lists.Put(tw.term, newScore, doc, postings.OpAdd, tw.w)
		m.counters.longListPostingsWritten.Add(2)
	}
	return nil
}

// applyDelete implements kindMethod, overriding the shared path: the
// document's postings are removed from the lists at their exact position and
// its terms leave the dictionary.
func (m *scoreMethod) applyDelete(doc DocID, tokens []string) error {
	row, err := m.liveRow(doc)
	if err != nil {
		return err
	}
	m.dictChanged()
	if tokens, err := m.deletedTokens(doc, tokens); err == nil {
		terms := text.DistinctTerms(tokens)
		for _, term := range terms {
			m.lists.Delete(term, row.val, doc)
		}
		m.dict.RemoveDocumentTerms(terms)
	}
	m.score.Put(doc, docRow{val: row.val, deleted: true})
	m.numDocs.Add(-1)
	return nil
}

// applyContent implements kindMethod, overriding the shared path: removed
// terms' postings are deleted in place rather than marked REM.
func (m *scoreMethod) applyContent(doc DocID, oldTokens, newTokens []string) error {
	score, err := m.listPosition(doc)
	if err != nil {
		return err
	}
	m.dictChanged()
	added, removed := diffTerms(oldTokens, newTokens)
	newWeights := text.TermFrequencies(newTokens)
	for _, term := range added {
		w := text.NormalizedTF(newWeights[term], len(newTokens))
		m.lists.Put(term, score, doc, postings.OpAdd, w)
	}
	for _, term := range removed {
		m.lists.Delete(term, score, doc)
	}
	m.counters.longListPostingsWritten.Add(uint64(len(added) + len(removed)))
	m.dict.AddDocumentTerms(added)
	m.dict.RemoveDocumentTerms(removed)
	return nil
}

// plan implements kindMethod.  Because the lists hold exact current
// scores, a candidate's list score is its score, and the scan stops as soon
// as k results are held whose scores are at least the score of the next
// posting: that bound is reached only by documents that sort after every
// held one at that score, and so lose the tie.
func (m *scoreMethod) plan(ctx *queryCtx) (rankedQuery, error) {
	for _, term := range ctx.query.Terms {
		ctx.streams = append(ctx.streams, ctx.snap.lists.Cursor(term))
	}
	return rankedQuery{
		need: ctx.need(),
		stop: func(ctx *queryCtx, score float64) bool { return ctx.holdsAbove(score, false) },
		resolve: func(_ *queryCtx, g *postings.Group) (float64, bool, error) {
			return g.SortKey, true, nil
		},
	}, nil
}
