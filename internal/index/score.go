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
	for _, term := range bc.terms() {
		for _, dw := range bc.sortedByScoreDesc(term) {
			items = append(items, btree.Item{
				Key:   keyedListKey(term, bc.docScores[dw.doc], dw.doc),
				Value: encodeKeyedListValue(postings.OpAdd, dw.w),
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
	old, changed, err := m.setScore(doc, newScore)
	if !changed {
		return err
	}
	oldScore := old.val
	tokens, err := m.docTokens(doc)
	if err != nil {
		return fmt.Errorf("index: Score method needs document %d content to move its postings: %w", doc, err)
	}
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

// TopK implements Method.  Because the lists hold exact current scores, the
// query can stop as soon as k results are found whose scores are at least
// the score of the next posting.
func (m *scoreMethod) TopK(q Query) (*QueryResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.WithTermScores {
		return nil, ErrTermScoresUnsupported
	}
	s, guard, err := m.acquire()
	if err != nil {
		return nil, err
	}
	defer guard.Leave()
	ctx := newQueryCtx(s, &q)
	defer ctx.release()
	for _, term := range q.Terms {
		ctx.streams = append(ctx.streams, s.lists.Cursor(term))
	}
	return m.runRanked(ctx, rankedQuery{
		conjunctive: !q.Disjunctive,
		maxPossible: func(_ *queryCtx, sortKey float64) float64 { return sortKey },
		resolve: func(_ *queryCtx, g *postings.Group) (float64, bool, error) {
			return g.SortKey, true, nil
		},
	})
}
