package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
)

// thresholdMethod implements the paper's threshold family (§4.3): the
// Score-Threshold method of §4.3.1, the Chunk method of §4.3.2 and its
// Chunk-TermScore extension of §4.3.3.
//
// Each term has a long inverted list frozen at build time in descending
// list-key order and a short inverted list holding fresh postings for
// documents whose score rose past thresholdValueOf(listKey).  The
// ListScore/ListChunk table remembers, for every document whose score has
// ever been updated, its current list key and whether it has short-list
// postings.  Updates are processed with Algorithm 1, queries with
// Algorithm 2 (Algorithm 3 when term scores are combined in); the query
// keeps scanning past the first k results until the threshold bound
// guarantees no unseen document can beat them, which is what makes the
// answer exact under the latest scores (Theorems 1 and 2).  The paper states
// both algorithms once, generically over thresholdValueOf; what a list key
// is and how far a score may drift from it is the kind's listOrder.
type thresholdMethod struct {
	*base
	order listOrder
}

// listOrder is what distinguishes the members of the threshold family: how
// the long lists are ordered and encoded, and how far a score may drift
// above a document's list key before its postings are rewritten.
type listOrder struct {
	// keyOf maps a score to its list key; it becomes base.keyOf, which the
	// maintenance paths shared with the other kinds file postings under.
	keyOf func(score float64) float64
	// thresholdValueOf is the paper's function of the same name: a
	// document's short-list postings are rewritten only when the key of its
	// new score exceeds thresholdValueOf(listKey).
	thresholdValueOf func(listKey float64) float64
	// maxPossible bounds the current score of every document whose postings
	// have not been reached when the scan is at sortKey.
	maxPossible func(ctx *queryCtx, sortKey float64) float64
	// prepare derives the order's build-time directory (score directory,
	// chunk boundaries) from the corpus being built.
	prepare func(bc *builtCorpus)
	// encode serializes one term's long list, reporting the fixed-width
	// footprint of its postings for the compression ratio.
	encode func(bc *builtCorpus, term string) (data []byte, rawBytes uint64, err error)
	// stream opens a long list written by encode.
	stream func(s *snap, r *blob.Reader) (postings.BatchIterator, error)
	// resolve is lines 12-21 of Algorithm 2: decide which copy of the
	// candidate is authoritative and fetch its latest score.  It stays per
	// order by measurement: candidates of a score-ordered list arrive in no
	// document order, so full descents beat the leaf-locality probes a
	// chunk's ascending documents reward.
	resolve resolveFunc
	// termScores reports that postings carry term weights: the kind keeps
	// fancy lists and answers combined SVR + term-score queries
	// (Algorithm 3).
	termScores bool
}

func newThresholdMethod(b *base, order listOrder) kindMethod {
	b.keyOf = order.keyOf
	return &thresholdMethod{base: b, order: order}
}

// scoreOrder is the Score-Threshold order of §4.3.1: the list key is the
// (stale) score, stored in every long-list posting, and
// thresholdValueOf(score) = t·score with t ≥ 1.
func scoreOrder(b *base) listOrder {
	threshold := func(listScore float64) float64 { return b.cfg.ThresholdRatio * listScore }
	return listOrder{
		keyOf:            func(score float64) float64 { return score },
		thresholdValueOf: threshold,
		maxPossible:      func(_ *queryCtx, listScore float64) float64 { return threshold(listScore) },
		prepare:          func(bc *builtCorpus) { b.scoreDir = postings.BuildScoreDir(bc.allScores()) },
		encode: func(bc *builtCorpus, term string) ([]byte, uint64, error) {
			builder := postings.NewBlockScoreListBuilder(b.scoreDir)
			for _, dw := range bc.sortedByScoreDesc(term) {
				if err := builder.Add(dw.doc, bc.docScores[dw.doc]); err != nil {
					return nil, 0, err
				}
			}
			return builder.Bytes(), uint64(builder.Len()) * rawBytesScorePosting, nil
		},
		stream: func(s *snap, r *blob.Reader) (postings.BatchIterator, error) {
			return postings.NewStreamScoreListDir(r, s.scoreDir)
		},
		resolve: func(ctx *queryCtx, g postings.Group) (float64, bool, error) {
			entry, exists, err := ctx.snap.table.Get(g.Doc)
			if err != nil {
				return 0, false, err
			}
			if !exists {
				// Never updated: the long-list score is the latest score.
				return g.SortKey, true, nil
			}
			if entry.flag && g.SortKey != entry.val {
				// The short-list copy (at sort key entry.val) is authoritative;
				// any other appearance is the stale long-list copy.
				return 0, false, nil
			}
			// The authoritative copy, but its stored score may be stale.
			return rowScore(ctx.score.Descend(g.Doc))
		},
	}
}

// chunkOrder is the Chunk order of §4.3.2, the best-performing structure in
// the paper's evaluation.  At build time the documents are partitioned into
// chunks by score (boundaries follow the score distribution with ratio
// ChunkRatio and a minimum chunk size); the list key is the chunk ID.  Long
// lists store postings grouped by descending chunk ID, in ascending
// document-ID order within a chunk; the chunk ID is stored once per chunk
// and no score at all, so the lists are essentially as small as the ID
// method's (Table 1).  thresholdValueOf(c) = c + 1: postings are rewritten
// only when a score climbs at least two chunks above its list chunk, and
// queries continue one chunk past the point where k results were found to
// compensate for the slack.  With termScores every posting also carries the
// document's normalized term weight (§4.3.3).
func chunkOrder(b *base, termScores bool) listOrder {
	if b.chunks == nil {
		// Not built yet: one chunk, as a build over no documents leaves.
		b.chunks = buildChunker(nil, b.cfg.ChunkRatio, b.cfg.MinChunkSize)
	}
	rawPosting := uint64(rawBytesIDPosting)
	if termScores {
		rawPosting = rawBytesIDTermPosting
	}
	return listOrder{
		termScores:       termScores,
		keyOf:            func(score float64) float64 { return float64(b.chunks.ChunkOf(score)) },
		thresholdValueOf: func(cid float64) float64 { return float64(thresholdChunk(int32(cid))) },
		// A document not reached when the scan is at chunk cid has a list
		// chunk of at most cid, and a score may drift one chunk above its list
		// chunk without a short-list rewrite, so its current score is below
		// the upper bound of chunk cid+1.
		maxPossible: func(ctx *queryCtx, cid float64) float64 {
			return ctx.snap.chunks.UpperBound(thresholdChunk(int32(cid)))
		},
		prepare: func(bc *builtCorpus) {
			b.chunks = buildChunker(bc.allScores(), b.cfg.ChunkRatio, b.cfg.MinChunkSize)
		},
		encode: func(bc *builtCorpus, term string) ([]byte, uint64, error) {
			builder := postings.NewBlockChunkedListBuilder(termScores)
			cids, byChunk := bc.chunked(term, b.chunks)
			for _, cid := range cids {
				if err := builder.AddChunk(cid, byChunk[cid]); err != nil {
					return nil, 0, err
				}
			}
			return builder.Bytes(), uint64(builder.Len())*rawPosting + uint64(builder.Chunks())*rawBytesChunkHeader, nil
		},
		stream: func(_ *snap, r *blob.Reader) (postings.BatchIterator, error) {
			return postings.NewStreamChunkedList(r)
		},
		// Within a chunk the candidates arrive in ascending document order, so
		// both tables are walked left to right through the query context's
		// leaf-locality probes instead of descended per candidate.
		resolve: func(ctx *queryCtx, g postings.Group) (float64, bool, error) {
			entry, exists, err := ctx.list.Get(g.Doc)
			if err != nil {
				return 0, false, err
			}
			if exists && entry.flag && g.SortKey != entry.val {
				// Stale long-list copy; the short copy is processed instead.
				return 0, false, nil
			}
			return rowScore(ctx.score.Get(g.Doc))
		},
	}
}

// buildLists implements kindMethod: one long list per term in the order's
// encoding and, with term scores, the term's fancy list right behind it.
func (m *thresholdMethod) buildLists(bc *builtCorpus) error {
	m.order.prepare(bc)
	// Published snapshots share the ref maps by pointer, so accumulate into
	// fresh maps and swap them in wholesale.
	refs := make(map[string]blob.Ref, len(bc.termDocs))
	var fancyRefs map[string]blob.Ref
	var fancyMinW map[string]float32
	if m.order.termScores {
		fancyRefs = make(map[string]blob.Ref, len(bc.termDocs))
		fancyMinW = make(map[string]float32, len(bc.termDocs))
	}
	for _, term := range bc.terms() {
		data, raw, err := m.order.encode(bc, term)
		if err != nil {
			return fmt.Errorf("index: build %s list for %q: %w", m.Name(), term, err)
		}
		ref, err := m.store.Put(data)
		if err != nil {
			return err
		}
		refs[term] = ref
		m.longBytes += uint64(len(data))
		m.longRawBytes += raw
		if m.order.termScores {
			if fancyRefs[term], fancyMinW[term], err = m.buildFancyList(bc, term); err != nil {
				return err
			}
		}
	}
	m.longRefs, m.fancyRefs, m.fancyMinW = refs, fancyRefs, fancyMinW
	return nil
}

// UpdateScore implements Method: Algorithm 1, over list keys.
func (m *thresholdMethod) UpdateScore(doc DocID, newScore float64) error {
	oldScore, changed, err := m.setScore(doc, newScore)
	if !changed {
		return err
	}
	defer m.publish()

	entry, exists, err := m.table.Get(doc)
	if err != nil {
		return err
	}
	listKey, inShort := entry.val, entry.flag
	if !exists {
		listKey = m.keyOf(oldScore)
		if err := m.table.Put(doc, docRow{val: listKey}); err != nil {
			return err
		}
	}

	newKey := m.keyOf(newScore)
	if newKey <= m.order.thresholdValueOf(listKey) {
		return nil
	}
	tokens, err := m.docTokens(doc)
	if err != nil {
		return fmt.Errorf("index: %s update for %d needs document content: %w", m.Name(), doc, err)
	}
	for _, tw := range docTermWeights(tokens) {
		if inShort {
			if err := m.lists.Delete(tw.term, listKey, doc); err != nil {
				return err
			}
		}
		if err := m.lists.Put(tw.term, newKey, doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	return m.table.Put(doc, docRow{val: newKey, flag: true})
}

// TopK implements Method: Algorithm 2, or Algorithm 3 for a combined
// SVR + term-score query.
func (m *thresholdMethod) TopK(q Query) (*QueryResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.WithTermScores && !m.order.termScores {
		return nil, ErrTermScoresUnsupported
	}
	s, guard, err := m.acquire()
	if err != nil {
		return nil, err
	}
	defer guard.Leave()
	ctx := newQueryCtx(s)
	defer ctx.release()
	if q.WithTermScores {
		return m.topKTermScores(s, ctx, q)
	}
	if err := m.listStreams(s, ctx, q.Terms); err != nil {
		return nil, err
	}
	return m.runRanked(ctx, rankedQuery{
		k:           q.K,
		conjunctive: !q.Disjunctive,
		maxPossible: m.order.maxPossible,
		resolve:     m.order.resolve,
	})
}

// listStreams fills ctx.streams with SL(t) ∪ LL(t) for every query term.
func (m *thresholdMethod) listStreams(s *snap, ctx *queryCtx, terms []string) error {
	ctx.streams = ctx.streams[:0]
	for _, term := range terms {
		st, err := m.termStream(s, term, m.order.stream)
		if err != nil {
			return err
		}
		ctx.streams = append(ctx.streams, st)
	}
	return nil
}
