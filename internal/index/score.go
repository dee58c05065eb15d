package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/storage/btree"
	"svrdb/internal/text"
)

// ScoreMethod implements the Score method of §4.2.2: every term's inverted
// list is kept in exact descending-score order in a clustered B+-tree, which
// makes top-k queries fast (scan a prefix, stop after k results) but makes
// score updates extremely expensive — every distinct term of the updated
// document needs its posting moved, one random B+-tree probe per term.
//
// The paper uses this method as the query-optimal / update-pathological end
// of the spectrum; Table 7 shows its per-update cost is orders of magnitude
// above every other method, which is why the evaluation drops it early.
type ScoreMethod struct {
	*base
	lists *keyedList
}

// NewScore creates a Score-method index.
func NewScore(cfg Config) (*ScoreMethod, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	lists, err := newKeyedList(b.cfg.Pool)
	if err != nil {
		return nil, err
	}
	m := &ScoreMethod{base: b, lists: lists}
	m.initSnapshots()
	return m, nil
}

// initSnapshots wires the clustered lists into the epoch machinery and
// publishes the initial snapshot; also used after Restore.
func (m *ScoreMethod) initSnapshots() {
	m.lists.enableCOW(m.retirePage)
	m.fillExtra = func(s *snap) { s.lists = m.lists.snapshotView() }
	m.publish()
}

// Name implements Method.
func (m *ScoreMethod) Name() string { return "Score" }

// Build implements Method.  On a fresh index the clustered lists are
// bulk-loaded leaf by leaf: (term, score desc, doc) is exactly the tree's
// key order, so the per-term score-sorted runs concatenate into one sorted
// run and no per-posting descent is paid.
func (m *ScoreMethod) Build(src DocSource, scores ScoreFunc) error {
	m.dictChanged()
	defer m.publish()
	m.src = src
	bc, err := accumulate(src, scores, m.dict)
	if err != nil {
		return err
	}
	if err := m.populateScoreTable(bc); err != nil {
		return err
	}
	if m.lists.tree.Len() == 0 {
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
	for _, term := range bc.terms() {
		for _, dw := range bc.termDocs[term] {
			if err := m.lists.Put(term, bc.docScores[dw.doc], dw.doc, postings.OpAdd, dw.w); err != nil {
				return fmt.Errorf("index: build Score list for %q: %w", term, err)
			}
		}
	}
	return nil
}

// ApplyUpdates implements Method.  Even though every Score-method update
// rewrites long-list postings, staging still groups a batch's per-term
// deletes and reinserts into per-leaf tree writes.
func (m *ScoreMethod) ApplyUpdates(batch []Update) error {
	return m.runBatch(m, batch, m.score, m.lists)
}

// UpdateScore implements Method: the posting of every distinct term of the
// document must be deleted at the old score position and reinserted at the
// new one, which is exactly the cost the paper's Figure 7 measures.
func (m *ScoreMethod) UpdateScore(doc DocID, newScore float64) error {
	defer m.publish()
	m.counters.scoreUpdates.Add(1)
	oldScore, deleted, ok, err := m.score.Get(doc)
	if err != nil {
		return err
	}
	if !ok || deleted {
		return fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	if err := m.score.Set(doc, newScore); err != nil {
		return err
	}
	if oldScore == newScore {
		return nil
	}
	tokens, err := m.src.Tokens(doc)
	if err != nil {
		return fmt.Errorf("index: Score method needs document %d content to move its postings: %w", doc, err)
	}
	for _, tw := range docTermWeights(tokens) {
		if err := m.lists.Delete(tw.term, oldScore, doc); err != nil {
			return err
		}
		if err := m.lists.Put(tw.term, newScore, doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		m.counters.longListPostingsWritten.Add(2)
	}
	return nil
}

// InsertDocument implements Method.
func (m *ScoreMethod) InsertDocument(doc DocID, tokens []string, score float64) error {
	m.dictChanged()
	defer m.publish()
	if err := m.score.Set(doc, score); err != nil {
		return err
	}
	weights := docTermWeights(tokens)
	distinct := make([]string, 0, len(weights))
	for _, tw := range weights {
		if err := m.lists.Put(tw.term, score, doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		m.counters.longListPostingsWritten.Add(1)
		distinct = append(distinct, tw.term)
	}
	m.dict.AddDocumentTerms(distinct)
	m.numDocs.Add(1)
	return nil
}

// DeleteDocument implements Method.
func (m *ScoreMethod) DeleteDocument(doc DocID) error {
	m.dictChanged()
	defer m.publish()
	score, _, ok, err := m.score.Get(doc)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	if m.src != nil {
		if tokens, err := m.src.Tokens(doc); err == nil {
			for _, term := range distinctTerms(tokens) {
				if err := m.lists.Delete(term, score, doc); err != nil {
					return err
				}
			}
			m.dict.RemoveDocumentTerms(distinctTerms(tokens))
		}
	}
	if err := m.score.MarkDeleted(doc); err != nil {
		return err
	}
	m.numDocs.Add(-1)
	return nil
}

// UpdateContent implements Method.
func (m *ScoreMethod) UpdateContent(doc DocID, oldTokens, newTokens []string) error {
	m.dictChanged()
	defer m.publish()
	score, _, ok, err := m.score.Get(doc)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	added, removed := diffTerms(oldTokens, newTokens)
	newWeights := text.TermFrequencies(newTokens)
	for _, term := range added {
		w := text.NormalizedTF(newWeights[term], len(newTokens))
		if err := m.lists.Put(term, score, doc, postings.OpAdd, w); err != nil {
			return err
		}
		m.counters.longListPostingsWritten.Add(1)
	}
	for _, term := range removed {
		if err := m.lists.Delete(term, score, doc); err != nil {
			return err
		}
		m.counters.longListPostingsWritten.Add(1)
	}
	m.dict.AddDocumentTerms(added)
	m.dict.RemoveDocumentTerms(removed)
	return nil
}

// TopK implements Method.  Because the lists hold exact current scores, the
// query can stop as soon as k results are found whose scores are at least
// the score of the next posting.
func (m *ScoreMethod) TopK(q Query) (*QueryResult, error) {
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
	ctx := newQueryCtx(s)
	defer ctx.release()
	for _, term := range q.Terms {
		ctx.streams = append(ctx.streams, s.lists.Cursor(term, false))
	}
	return m.runRanked(rankedQuery{
		streams:     ctx.streams,
		k:           q.K,
		conjunctive: !q.Disjunctive,
		maxPossible: func(sortKey float64) float64 { return sortKey },
		resolve: func(g postings.Group) (float64, bool, error) {
			return g.SortKey, true, nil
		},
	})
}

// Stats implements Method.  LongListBytes is the serialized size of the
// clustered score-ordered lists; it corresponds to the 2,768 MB entry of
// Table 1 (the Score method pays B+-tree overhead because its lists must be
// updatable in place).
func (m *ScoreMethod) Stats() Stats {
	sn, guard, err := m.acquire()
	if err != nil {
		return Stats{Method: m.Name()}
	}
	defer guard.Leave()
	size, err := sn.lists.SizeBytes()
	if err != nil {
		size = 0
	}
	s := Stats{
		Method:        m.Name(),
		LongListBytes: size,
		// LongListRawBytes stays zero: the Score method keeps its postings in
		// B+-tree leaves, not compressed long-list blobs.
		TablePatches: sn.score.Patches() + sn.lists.Patches(),
	}
	m.counters.fill(&s)
	m.fillPoolStats(&s)
	m.fillEpochStats(&s)
	return s
}
