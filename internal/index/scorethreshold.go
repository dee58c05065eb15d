package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
)

// ScoreThresholdMethod implements the Score-Threshold method of §4.3.1.
//
// Each term has a long inverted list frozen at build time in descending
// (stale) score order, with the score stored in every posting, and a short
// inverted list holding fresh postings for documents whose score rose past
// thresholdValueOf(listScore) = thresholdRatio · listScore.  The ListScore
// table remembers, for every document whose score has ever been updated, its
// current list score and whether it has short-list postings.  Updates are
// processed with Algorithm 1, queries with Algorithm 2; the query keeps
// scanning past the first k results until the threshold bound guarantees no
// unseen document can beat them, which is what makes the answer exact under
// the latest scores (Theorem 1/2).
type ScoreThresholdMethod struct {
	*base
	short     *keyedList
	listScore *listTable
	// knownTokens caches terms of incrementally inserted documents.
	knownTokens map[DocID][]string
	// scoreDir is the score directory of the compressed long lists: the
	// distinct build-time scores in descending order, shared by every list
	// so each posting stores a small rank delta instead of a raw float64.
	// Nil when the lists were built uncompressed.
	scoreDir []float64
}

// NewScoreThreshold creates a Score-Threshold index with the configured
// threshold ratio.
func NewScoreThreshold(cfg Config) (*ScoreThresholdMethod, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	short, err := newKeyedList(b.cfg.Pool)
	if err != nil {
		return nil, err
	}
	ls, err := newListTable(b.cfg.Pool)
	if err != nil {
		return nil, err
	}
	m := &ScoreThresholdMethod{base: b, short: short, listScore: ls, knownTokens: map[DocID][]string{}}
	m.initSnapshots()
	return m, nil
}

// initSnapshots wires the short lists and the ListScore table into the
// epoch machinery and publishes the initial snapshot; also used after
// Restore and after a merge replaces the structures.
func (m *ScoreThresholdMethod) initSnapshots() {
	m.short.enableCOW(m.retirePage)
	m.listScore.enableCOW(m.retirePage)
	m.fillExtra = func(s *snap) {
		s.lists = m.short.snapshotView()
		s.table = m.listScore.snapshotView()
		s.scoreDir = m.scoreDir
	}
	m.publish()
}

// Name implements Method.
func (m *ScoreThresholdMethod) Name() string { return "Score-Threshold" }

// ThresholdRatio returns the configured ratio t.
func (m *ScoreThresholdMethod) ThresholdRatio() float64 { return m.cfg.ThresholdRatio }

// thresholdValueOf is the paper's thresholdValueOf(score) = t·score with
// t ≥ 1; a document's short-list postings are rewritten only when its score
// exceeds this value.
func (m *ScoreThresholdMethod) thresholdValueOf(score float64) float64 {
	return m.cfg.ThresholdRatio * score
}

// Build implements Method.
func (m *ScoreThresholdMethod) Build(src DocSource, scores ScoreFunc) error {
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
	m.scoreDir = postings.BuildScoreDir(bc.allScores())
	// Published snapshots share the ref map by pointer, so accumulate into a
	// fresh map and swap it in wholesale.
	refs := make(map[string]blob.Ref, len(bc.termDocs))
	for _, term := range bc.terms() {
		builder := postings.NewBlockScoreListBuilder(m.scoreDir)
		for _, dw := range bc.sortedByScoreDesc(term) {
			if err := builder.Add(dw.doc, bc.docScores[dw.doc]); err != nil {
				return fmt.Errorf("index: build Score-Threshold list for %q: %w", term, err)
			}
		}
		data := builder.Bytes()
		ref, err := m.store.Put(data)
		if err != nil {
			return err
		}
		refs[term] = ref
		m.longBytes += uint64(len(data))
		m.longRawBytes += uint64(builder.Len()) * rawBytesScorePosting
	}
	m.longRefs = refs
	return nil
}

// ApplyUpdates implements Method: Algorithm 1 replays per update against
// the staged Score and ListScore tables, and the short-list postings of the
// whole batch are written grouped by term.
func (m *ScoreThresholdMethod) ApplyUpdates(batch []Update) error {
	return m.runBatch(m, batch, m.score, m.short, m.listScore)
}

// UpdateScore implements Method (Algorithm 1).
func (m *ScoreThresholdMethod) UpdateScore(doc DocID, newScore float64) error {
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

	entry, exists, err := m.listScore.Get(doc)
	if err != nil {
		return err
	}
	var lScore float64
	var inShort bool
	if exists {
		lScore, inShort = entry.Key, entry.InShortList
	} else {
		lScore = oldScore
		if err := m.listScore.Put(doc, listEntry{Key: oldScore, InShortList: false}); err != nil {
			return err
		}
	}

	if newScore <= m.thresholdValueOf(lScore) {
		return nil
	}
	tokens, err := m.docTokens(doc)
	if err != nil {
		return fmt.Errorf("index: Score-Threshold update for %d needs document content: %w", doc, err)
	}
	for _, tw := range docTermWeights(tokens) {
		if inShort {
			if err := m.short.Delete(tw.term, lScore, doc); err != nil {
				return err
			}
		}
		if err := m.short.Put(tw.term, newScore, doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	return m.listScore.Put(doc, listEntry{Key: newScore, InShortList: true})
}

// InsertDocument implements Method (Appendix A.2): the new document's
// postings go straight to the short lists.
func (m *ScoreThresholdMethod) InsertDocument(doc DocID, tokens []string, score float64) error {
	m.dictChanged()
	defer m.publish()
	if err := m.score.Set(doc, score); err != nil {
		return err
	}
	weights := docTermWeights(tokens)
	distinct := make([]string, 0, len(weights))
	for _, tw := range weights {
		if err := m.short.Put(tw.term, score, doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
		distinct = append(distinct, tw.term)
	}
	m.dict.AddDocumentTerms(distinct)
	m.knownTokens[doc] = distinct
	m.numDocs.Add(1)
	return m.listScore.Put(doc, listEntry{Key: score, InShortList: true})
}

// DeleteDocument implements Method (Appendix A.2).
func (m *ScoreThresholdMethod) DeleteDocument(doc DocID) error {
	m.dictChanged()
	defer m.publish()
	score, _, ok, err := m.score.Get(doc)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	if err := m.score.MarkDeleted(doc); err != nil {
		return err
	}
	for _, term := range m.docTermsForMaintenance(doc) {
		if err := m.short.DeleteAllForDoc(term, doc); err != nil {
			return err
		}
	}
	// Leave a ListScore entry pointing at the long-list copy so that the
	// query path probes the Score table (and sees the deleted flag) instead
	// of trusting the stale long-list score.
	entry, exists, err := m.listScore.Get(doc)
	if err != nil {
		return err
	}
	key := score
	if exists {
		key = entry.Key
	}
	if err := m.listScore.Put(doc, listEntry{Key: key, InShortList: false}); err != nil {
		return err
	}
	delete(m.knownTokens, doc)
	m.numDocs.Add(-1)
	return nil
}

// UpdateContent implements Method (Appendix A.1): added terms gain ADD
// postings and removed terms gain REM postings in the short lists, at the
// document's current list position so that they align with its other
// postings during the merge.
func (m *ScoreThresholdMethod) UpdateContent(doc DocID, oldTokens, newTokens []string) error {
	m.dictChanged()
	defer m.publish()
	listKey, err := m.listPosition(doc)
	if err != nil {
		return err
	}
	added, removed := diffTerms(oldTokens, newTokens)
	newWeights := text.TermFrequencies(newTokens)
	for _, term := range added {
		w := text.NormalizedTF(newWeights[term], len(newTokens))
		if err := m.short.Put(term, listKey, doc, postings.OpAdd, w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	for _, term := range removed {
		if err := m.short.Put(term, listKey, doc, postings.OpRem, 0); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	m.dict.AddDocumentTerms(added)
	m.dict.RemoveDocumentTerms(removed)
	return nil
}

// listPosition returns the sort key under which the document's postings
// currently appear (its list score).
func (m *ScoreThresholdMethod) listPosition(doc DocID) (float64, error) {
	entry, exists, err := m.listScore.Get(doc)
	if err != nil {
		return 0, err
	}
	if exists {
		return entry.Key, nil
	}
	score, _, ok, err := m.score.Get(doc)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	return score, nil
}

func (m *ScoreThresholdMethod) docTokens(doc DocID) ([]string, error) {
	if m.src != nil {
		if tokens, err := m.src.Tokens(doc); err == nil {
			return tokens, nil
		} else if cached, ok := m.knownTokens[doc]; ok {
			return cached, nil
		} else {
			return nil, err
		}
	}
	if cached, ok := m.knownTokens[doc]; ok {
		return cached, nil
	}
	return nil, fmt.Errorf("%w: %d has no available content", ErrUnknownDocument, doc)
}

func (m *ScoreThresholdMethod) docTermsForMaintenance(doc DocID) []string {
	if tokens, err := m.docTokens(doc); err == nil {
		return distinctTerms(tokens)
	}
	return nil
}

// TopK implements Method (Algorithm 2).
func (m *ScoreThresholdMethod) TopK(q Query) (*QueryResult, error) {
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
		long, err := m.longIterator(s, term)
		if err != nil {
			return nil, err
		}
		short, err := s.lists.Iterator(term)
		if err != nil {
			return nil, err
		}
		ctx.streams = append(ctx.streams, combinedStream(short, long))
	}
	return m.runRanked(rankedQuery{
		streams:     ctx.streams,
		k:           q.K,
		conjunctive: !q.Disjunctive,
		maxPossible: m.thresholdValueOf,
		resolve:     m.resolveCandidate(s),
	})
}

// resolveCandidate implements lines 12-21 of Algorithm 2 against one
// snapshot: decide which copy of the document is authoritative and fetch
// its latest score.  Candidates arrive in list order, not document order,
// so plain snapshot lookups (full descents) beat leaf-caching probes here.
func (m *ScoreThresholdMethod) resolveCandidate(s *snap) func(g postings.Group) (float64, bool, error) {
	return func(g postings.Group) (float64, bool, error) {
		entry, exists, err := s.table.Get(g.Doc)
		if err != nil {
			return 0, false, err
		}
		if exists && entry.InShortList {
			// The short-list copy (at sort key entry.Key) is authoritative; any
			// other appearance is the stale long-list copy and is skipped.
			if g.SortKey != entry.Key {
				return 0, false, nil
			}
			return s.currentScore(g.Doc)
		}
		if !exists {
			// Never updated: the long-list score is the latest score.
			return g.SortKey, true, nil
		}
		// Updated but within the threshold: the long-list copy is authoritative
		// but its stored score is stale, so probe the Score table.
		return s.currentScore(g.Doc)
	}
}

func (m *ScoreThresholdMethod) longIterator(s *snap, term string) (postings.BatchIterator, error) {
	ref, ok := s.longRefs[term]
	if !ok {
		return postings.NewSliceIterator(nil), nil
	}
	return postings.NewStreamScoreListDir(m.store.NewReader(ref), s.scoreDir)
}

// Stats implements Method.
func (m *ScoreThresholdMethod) Stats() Stats {
	sn, guard, err := m.acquire()
	if err != nil {
		return Stats{Method: m.Name()}
	}
	defer guard.Leave()
	s := Stats{
		Method:           m.Name(),
		LongListBytes:    sn.longBytes,
		LongListRawBytes: sn.longRawBytes,
		ShortListEntries: sn.lists.Len(),
		TablePatches:     sn.score.Patches() + sn.table.Patches() + sn.lists.Patches(),
	}
	m.counters.fill(&s)
	m.fillPoolStats(&s)
	m.fillEpochStats(&s)
	return s
}
