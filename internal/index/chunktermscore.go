package index

import (
	"fmt"
	"math"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
	"svrdb/internal/topk"
)

// ChunkTermScoreMethod implements the Chunk-TermScore method of §4.3.3: the
// Chunk method extended to rank by a combination of the SVR score and
// IR-style term scores, F(d) = svr(d) + Σ_i termScore_i(d).
//
// Two additions make that possible while keeping score updates cheap:
// every posting in the long and short lists carries the document's
// normalized term weight, and each term has a small ID-ordered "fancy list"
// of the postings with the highest term weights (following Long & Suel's
// Fancy-ID organization, adapted here to chunk-ordered lists).  Queries run
// Algorithm 3: the fancy lists are merged first to seed the result heap and
// the remainList, then the chunked lists are scanned top chunk first, and
// the query stops once neither the remaining chunks nor the remainList can
// produce a better combined score.
type ChunkTermScoreMethod struct {
	*ChunkMethod
	// fancyRefs/fancyMinW are replaced wholesale on build and merge (never
	// mutated in place) because published snapshots share them by pointer.
	fancyRefs  map[string]blob.Ref
	fancyMinW  map[string]float32
	fancyBytes uint64
}

// NewChunkTermScore creates a Chunk-TermScore index.
func NewChunkTermScore(cfg Config) (*ChunkTermScoreMethod, error) {
	inner, err := NewChunk(cfg)
	if err != nil {
		return nil, err
	}
	m := &ChunkTermScoreMethod{
		ChunkMethod: inner,
		fancyRefs:   map[string]blob.Ref{},
		fancyMinW:   map[string]float32{},
	}
	m.initSnapshots()
	return m, nil
}

// initSnapshots replaces the embedded Chunk method's publication hook with
// one that also captures the fancy-list state, and republishes.
func (m *ChunkTermScoreMethod) initSnapshots() {
	m.ChunkMethod.initSnapshots()
	m.fillExtra = func(s *snap) {
		m.fillChunkSnap(s)
		s.fancyRefs = m.fancyRefs
		s.fancyMinW = m.fancyMinW
		s.fancyBytes = m.fancyBytes
	}
	m.publish()
}

// Name implements Method.
func (m *ChunkTermScoreMethod) Name() string { return "Chunk-TermScore" }

// Build implements Method.
func (m *ChunkTermScoreMethod) Build(src DocSource, scores ScoreFunc) error {
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
	// Snapshots share these maps by pointer: accumulate locally, swap in
	// wholesale.
	refs := make(map[string]blob.Ref, len(bc.termDocs))
	fancyRefs := make(map[string]blob.Ref, len(bc.termDocs))
	fancyMinW := make(map[string]float32, len(bc.termDocs))
	for _, term := range bc.terms() {
		builder := postings.NewBlockChunkedListBuilder(true)
		cids, byChunk := bc.chunked(term, m.chunks)
		for _, cid := range cids {
			if err := builder.AddChunk(cid, byChunk[cid]); err != nil {
				return fmt.Errorf("index: build Chunk-TermScore list for %q: %w", term, err)
			}
		}
		data := builder.Bytes()
		ref, err := m.store.Put(data)
		if err != nil {
			return err
		}
		refs[term] = ref
		m.longBytes += uint64(len(data))
		m.longRawBytes += uint64(builder.Len())*rawBytesIDTermPosting + uint64(builder.Chunks())*rawBytesChunkHeader

		// Fancy list: the FancyListSize postings with the highest term
		// weights, stored in ID order.
		fancyPosts, minW := bc.fancy(term, m.cfg.FancyListSize)
		fb := postings.NewBlockIDTermListBuilder()
		for _, dw := range fancyPosts {
			if err := fb.Add(dw.doc, dw.w); err != nil {
				return fmt.Errorf("index: build fancy list for %q: %w", term, err)
			}
		}
		fdata := fb.Bytes()
		fref, err := m.store.Put(fdata)
		if err != nil {
			return err
		}
		fancyRefs[term] = fref
		fancyMinW[term] = minW
		m.fancyBytes += uint64(len(fdata))
		m.longRawBytes += uint64(fb.Len()) * rawBytesIDTermPosting
	}
	m.longRefs = refs
	m.fancyRefs = fancyRefs
	m.fancyMinW = fancyMinW
	return nil
}

// ApplyUpdates implements Method: identical to the Chunk method's batch
// path (the fancy lists are read-only between merges, so a batch touches
// the same three updatable structures).
func (m *ChunkTermScoreMethod) ApplyUpdates(batch []Update) error {
	return m.runBatch(m, batch, m.score, m.short, m.listChunk)
}

// TopK implements Method (Algorithm 3).  Plain SVR-only queries (without
// term scores) fall back to the Chunk algorithm over the same lists.
func (m *ChunkTermScoreMethod) TopK(q Query) (*QueryResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.WithTermScores {
		return m.ChunkMethod.TopK(q)
	}
	s, guard, err := m.acquire()
	if err != nil {
		return nil, err
	}
	defer guard.Leave()
	m.counters.queries.Add(1)

	ctx := newQueryCtx(s)
	defer ctx.release()
	for i, term := range q.Terms {
		idf := s.queryIDF(&q, i)
		ctx.idfs = append(ctx.idfs, idf)
		// ε_i · idf_i, the per-term cap for unseen docs.  Under a global idf
		// override the cap stays sound: fancyMinW still bounds this shard's
		// unseen term weights, and idf is the same factor applied everywhere.
		ctx.epsilons = append(ctx.epsilons, text.TFIDF(s.fancyMinW[term], idf))
	}
	idfs, epsilons := ctx.idfs, ctx.epsilons
	epsilonSum := 0.0
	for _, e := range epsilons {
		epsilonSum += e
	}

	heap := topk.New(q.K)
	res := &QueryResult{}
	// Fancy lists and chunked lists both yield candidates in ascending
	// document order (per chunk), so their score resolution runs through
	// the context's leaf-locality probes (phase 1 is done with the Score
	// probe before phase 2's resolver takes it over); checkStop's remainList
	// pruning probes documents in arbitrary order and keeps the plain
	// lookups.
	fancyScores := &ctx.score
	resolve := probedChunkResolver(ctx)

	// Phase 1 (Algorithm 3 lines 8-9): merge the fancy lists.  Documents
	// present in every fancy list have exact combined scores and seed the
	// heap; documents present in only some go to the remainList with the
	// term weights learned so far.
	type remainInfo struct {
		known map[int]float64 // term index -> exact tf-idf contribution
	}
	remain := map[DocID]*remainInfo{}

	for _, term := range q.Terms {
		it, err := m.fancyIterator(s, term)
		if err != nil {
			return nil, err
		}
		ctx.streams = append(ctx.streams, it)
	}
	fancyMerger := postings.NewGroupMerger(ctx.streams...)
	defer fancyMerger.Close()
	for {
		g, ok, err := fancyMerger.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.PostingsScanned += g.Count
		if g.ContainsAll() {
			svr, deleted, ok, err := fancyScores.Get(g.Doc)
			if err != nil {
				return nil, err
			}
			include := ok && !deleted
			if include {
				combined := svr
				for i, present := range g.Present {
					if present {
						combined += text.TFIDF(g.Entries[i].TermScore, idfs[i])
					}
				}
				heap.Add(int64(g.Doc), combined)
				res.ScoreLookups++
			}
			continue
		}
		info := &remainInfo{known: map[int]float64{}}
		for i, present := range g.Present {
			if present {
				info.known[i] = text.TFIDF(g.Entries[i].TermScore, idfs[i])
			}
		}
		remain[g.Doc] = info
	}

	// Phase 2 (lines 10-34): scan the chunked lists top chunk first.  The
	// fancy merger copied its stream references into its own heads, so the
	// context's stream slice can be reused for this phase.
	ctx.streams = ctx.streams[:0]
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
	merger := postings.NewGroupMerger(ctx.streams...)
	defer merger.Close()
	lastCID := int32(math.MinInt32)
	haveCID := false

	checkStop := func(cidJustFinished int32) (bool, error) {
		min, full := heap.MinScore()
		if !full {
			return false, nil
		}
		// The SVR score of any document not yet reached is below the upper
		// bound of the chunk one above the chunks still to be scanned.
		svrBound := s.chunks.UpperBound(cidJustFinished)
		// Prune remainList entries that can no longer win.
		for doc, info := range remain {
			svr, present, err := s.currentScore(doc)
			if err != nil {
				return false, err
			}
			res.ScoreLookups++
			if !present {
				delete(remain, doc)
				continue
			}
			bound := svr
			for i := range q.Terms {
				if known, ok := info.known[i]; ok {
					bound += known
				} else {
					bound += epsilons[i]
				}
			}
			if bound <= min {
				delete(remain, doc)
			}
		}
		if len(remain) > 0 {
			return false, nil
		}
		return svrBound+epsilonSum <= min, nil
	}

	for {
		g, ok, err := merger.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.PostingsScanned += g.Count
		cid := int32(g.SortKey)
		if haveCID && cid < lastCID {
			stop, err := checkStop(lastCID)
			if err != nil {
				return nil, err
			}
			if stop {
				res.Stopped = true
				break
			}
		}
		lastCID, haveCID = cid, true

		// The document is now being processed through its regular postings,
		// so it no longer needs to be remembered separately (line 12).
		delete(remain, g.Doc)

		matches := g.ContainsAll() || (q.Disjunctive && g.Count >= 1)
		if !matches {
			continue
		}
		svr, include, err := resolve(g)
		if err != nil {
			return nil, err
		}
		res.ScoreLookups++
		if !include {
			continue
		}
		combined := svr
		for i, present := range g.Present {
			if present {
				combined += text.TFIDF(g.Entries[i].TermScore, idfs[i])
			}
		}
		heap.Add(int64(g.Doc), combined)
	}

	res.Results = heap.Results()
	m.counters.postingsScanned.Add(uint64(res.PostingsScanned))
	return res, nil
}

func (m *ChunkTermScoreMethod) fancyIterator(s *snap, term string) (postings.BatchIterator, error) {
	ref, ok := s.fancyRefs[term]
	if !ok {
		return postings.NewSliceIterator(nil), nil
	}
	return postings.NewStreamIDTermList(m.store.NewReader(ref))
}

// Stats implements Method; LongListBytes includes the fancy lists since they
// are part of the read-only structure rebuilt offline.
func (m *ChunkTermScoreMethod) Stats() Stats {
	sn, guard, err := m.acquire()
	if err != nil {
		return Stats{Method: m.Name()}
	}
	defer guard.Leave()
	s := Stats{
		Method:           m.Name(),
		LongListBytes:    sn.longBytes + sn.fancyBytes,
		LongListRawBytes: sn.longRawBytes,
		ShortListEntries: sn.lists.Len(),
		TablePatches:     sn.score.Patches() + sn.table.Patches() + sn.lists.Patches(),
	}
	m.counters.fill(&s)
	m.fillPoolStats(&s)
	m.fillEpochStats(&s)
	return s
}
