package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
)

// ChunkMethod implements the Chunk method of §4.3.2, the best-performing
// structure in the paper's evaluation.
//
// At build time the documents are partitioned into chunks by score (chunk
// boundaries follow the score distribution with ratio chunkRatio and a
// minimum chunk size).  Each term's long list stores its postings grouped by
// descending chunk ID, in ascending document-ID order within a chunk; the
// chunk ID is stored once per chunk and no score is stored at all, so the
// long lists are essentially as small as the ID method's (Table 1).  A
// document's short-list postings are rewritten only when its score climbs at
// least two chunks above its list chunk (thresholdValueOf(c) = c + 1), and
// queries scan chunks from the top down, continuing one chunk past the point
// where k results were found to compensate for the slack.
type ChunkMethod struct {
	*base
	short       *keyedList
	listChunk   *listTable
	chunks      *chunker
	knownTokens map[DocID][]string
}

// NewChunk creates a Chunk-method index with the configured chunk ratio and
// minimum chunk size.
func NewChunk(cfg Config) (*ChunkMethod, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	short, err := newKeyedList(b.cfg.Pool)
	if err != nil {
		return nil, err
	}
	lc, err := newListTable(b.cfg.Pool)
	if err != nil {
		return nil, err
	}
	m := &ChunkMethod{base: b, short: short, listChunk: lc, knownTokens: map[DocID][]string{}}
	m.initSnapshots()
	return m, nil
}

// initSnapshots wires the short lists and the ListChunk table into the
// epoch machinery and publishes the initial snapshot; also used after
// Restore and after a merge replaces the structures.  The Chunk-TermScore
// method layers its own fillExtra on top of this one.
func (m *ChunkMethod) initSnapshots() {
	m.short.enableCOW(m.retirePage)
	m.listChunk.enableCOW(m.retirePage)
	m.fillExtra = func(s *snap) { m.fillChunkSnap(s) }
	m.publish()
}

func (m *ChunkMethod) fillChunkSnap(s *snap) {
	s.lists = m.short.snapshotView()
	s.table = m.listChunk.snapshotView()
	s.chunks = m.chunks
}

// Name implements Method.
func (m *ChunkMethod) Name() string { return "Chunk" }

// ChunkRatio returns the configured ratio c.
func (m *ChunkMethod) ChunkRatio() float64 { return m.cfg.ChunkRatio }

// NumChunks reports how many chunks the build produced.
func (m *ChunkMethod) NumChunks() int {
	if m.chunks == nil {
		return 0
	}
	return m.chunks.NumChunks()
}

// Build implements Method.
func (m *ChunkMethod) Build(src DocSource, scores ScoreFunc) error {
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
	m.chunks = buildChunker(bc.allScores(), m.cfg.ChunkRatio, m.cfg.MinChunkSize)
	// Published snapshots share the ref map by pointer, so accumulate into a
	// fresh map and swap it in wholesale.
	refs := make(map[string]blob.Ref, len(bc.termDocs))
	for _, term := range bc.terms() {
		builder := postings.NewBlockChunkedListBuilder(false)
		cids, byChunk := bc.chunked(term, m.chunks)
		for _, cid := range cids {
			if err := builder.AddChunk(cid, byChunk[cid]); err != nil {
				return fmt.Errorf("index: build Chunk list for %q: %w", term, err)
			}
		}
		data := builder.Bytes()
		ref, err := m.store.Put(data)
		if err != nil {
			return err
		}
		refs[term] = ref
		m.longBytes += uint64(len(data))
		m.longRawBytes += uint64(builder.Len())*rawBytesIDPosting + uint64(builder.Chunks())*rawBytesChunkHeader
	}
	m.longRefs = refs
	return nil
}

// ApplyUpdates implements Method: Algorithm 1 replays per update against
// the staged Score and ListChunk tables, and the short-list postings of the
// whole batch are written grouped by term.
func (m *ChunkMethod) ApplyUpdates(batch []Update) error {
	return m.runBatch(m, batch, m.score, m.short, m.listChunk)
}

// UpdateScore implements Method (Algorithm 1 with chunk IDs in place of
// scores).
func (m *ChunkMethod) UpdateScore(doc DocID, newScore float64) error {
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

	entry, exists, err := m.listChunk.Get(doc)
	if err != nil {
		return err
	}
	var listCID int32
	var inShort bool
	if exists {
		listCID, inShort = int32(entry.Key), entry.InShortList
	} else {
		listCID = m.chunks.ChunkOf(oldScore)
		if err := m.listChunk.Put(doc, listEntry{Key: float64(listCID), InShortList: false}); err != nil {
			return err
		}
	}

	newCID := m.chunks.ChunkOf(newScore)
	if newCID <= thresholdChunk(listCID) {
		return nil
	}
	tokens, err := m.docTokens(doc)
	if err != nil {
		return fmt.Errorf("index: Chunk update for %d needs document content: %w", doc, err)
	}
	for _, tw := range docTermWeights(tokens) {
		if inShort {
			if err := m.short.Delete(tw.term, float64(listCID), doc); err != nil {
				return err
			}
		}
		if err := m.short.Put(tw.term, float64(newCID), doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	return m.listChunk.Put(doc, listEntry{Key: float64(newCID), InShortList: true})
}

// InsertDocument implements Method (Appendix A.2).
func (m *ChunkMethod) InsertDocument(doc DocID, tokens []string, score float64) error {
	m.dictChanged()
	defer m.publish()
	if m.chunks == nil {
		return fmt.Errorf("index: Chunk method must be built before inserting documents")
	}
	if err := m.score.Set(doc, score); err != nil {
		return err
	}
	cid := m.chunks.ChunkOf(score)
	weights := docTermWeights(tokens)
	distinct := make([]string, 0, len(weights))
	for _, tw := range weights {
		if err := m.short.Put(tw.term, float64(cid), doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
		distinct = append(distinct, tw.term)
	}
	m.dict.AddDocumentTerms(distinct)
	m.knownTokens[doc] = distinct
	m.numDocs.Add(1)
	return m.listChunk.Put(doc, listEntry{Key: float64(cid), InShortList: true})
}

// DeleteDocument implements Method (Appendix A.2).
func (m *ChunkMethod) DeleteDocument(doc DocID) error {
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
	entry, exists, err := m.listChunk.Get(doc)
	if err != nil {
		return err
	}
	key := float64(m.chunks.ChunkOf(score))
	if exists {
		key = entry.Key
	}
	if err := m.listChunk.Put(doc, listEntry{Key: key, InShortList: false}); err != nil {
		return err
	}
	delete(m.knownTokens, doc)
	m.numDocs.Add(-1)
	return nil
}

// UpdateContent implements Method (Appendix A.1).
func (m *ChunkMethod) UpdateContent(doc DocID, oldTokens, newTokens []string) error {
	m.dictChanged()
	defer m.publish()
	listCID, err := m.listPosition(doc)
	if err != nil {
		return err
	}
	added, removed := diffTerms(oldTokens, newTokens)
	newWeights := text.TermFrequencies(newTokens)
	for _, term := range added {
		w := text.NormalizedTF(newWeights[term], len(newTokens))
		if err := m.short.Put(term, float64(listCID), doc, postings.OpAdd, w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	for _, term := range removed {
		if err := m.short.Put(term, float64(listCID), doc, postings.OpRem, 0); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	m.dict.AddDocumentTerms(added)
	m.dict.RemoveDocumentTerms(removed)
	return nil
}

// listPosition returns the chunk ID under which the document's postings
// currently appear.
func (m *ChunkMethod) listPosition(doc DocID) (int32, error) {
	entry, exists, err := m.listChunk.Get(doc)
	if err != nil {
		return 0, err
	}
	if exists {
		return int32(entry.Key), nil
	}
	score, _, ok, err := m.score.Get(doc)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	return m.chunks.ChunkOf(score), nil
}

func (m *ChunkMethod) docTokens(doc DocID) ([]string, error) {
	if m.src != nil {
		if tokens, err := m.src.Tokens(doc); err == nil {
			return tokens, nil
		}
	}
	if cached, ok := m.knownTokens[doc]; ok {
		return cached, nil
	}
	return nil, fmt.Errorf("%w: %d has no available content", ErrUnknownDocument, doc)
}

func (m *ChunkMethod) docTermsForMaintenance(doc DocID) []string {
	if tokens, err := m.docTokens(doc); err == nil {
		return distinctTerms(tokens)
	}
	return nil
}

// TopK implements Method: the chunk adaptation of Algorithm 2.
func (m *ChunkMethod) TopK(q Query) (*QueryResult, error) {
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
		maxPossible: maxPossibleChunkScore(s),
		resolve:     probedChunkResolver(ctx),
	})
}

// probedChunkResolver returns a per-query resolveCandidate whose ListChunk
// and Score lookups run through the query context's leaf-locality probes:
// within a chunk the candidates arrive in ascending document order, so both
// tables are walked left to right instead of descended per candidate.
// Shared by the Chunk and Chunk-TermScore methods.
func probedChunkResolver(ctx *queryCtx) func(g postings.Group) (float64, bool, error) {
	lp, sp := &ctx.list, &ctx.score
	return func(g postings.Group) (float64, bool, error) {
		entry, exists, err := lp.Get(g.Doc)
		if err != nil {
			return 0, false, err
		}
		if exists && entry.InShortList && g.SortKey != entry.Key {
			// Stale long-list copy; the short copy is processed instead.
			return 0, false, nil
		}
		score, deleted, ok, err := sp.Get(g.Doc)
		if err != nil {
			return 0, false, err
		}
		if !ok || deleted {
			return 0, false, nil
		}
		return score, true, nil
	}
}

// maxPossibleChunkScore bounds the current score of any document whose
// postings have not been reached when the scan is at chunk cid: such a
// document's list chunk is at most cid, and since a score may drift one
// chunk above its list chunk without triggering a short-list rewrite, its
// current score is below the upper bound of chunk cid+1.
func maxPossibleChunkScore(s *snap) func(sortKey float64) float64 {
	return func(sortKey float64) float64 {
		return s.chunks.UpperBound(thresholdChunk(int32(sortKey)))
	}
}

func (m *ChunkMethod) longIterator(s *snap, term string) (postings.BatchIterator, error) {
	ref, ok := s.longRefs[term]
	if !ok {
		return postings.NewSliceIterator(nil), nil
	}
	return postings.NewStreamChunkedList(m.store.NewReader(ref))
}

// Stats implements Method.
func (m *ChunkMethod) Stats() Stats {
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
