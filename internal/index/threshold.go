package index

import (
	"fmt"

	"svrdb/internal/postings"
)

// thresholdMethod implements the paper's threshold family (§4.3): the
// Score-Threshold method of §4.3.1, the Chunk method of §4.3.2 and its
// Chunk-TermScore extension of §4.3.3.
//
// Each term has a long inverted list frozen at build time in descending
// list-key order and a short inverted list holding fresh postings for
// documents whose score rose past thresholdValueOf(listKey).  The
// ListScore/ListChunk table remembers, for every document whose score has
// ever been updated, its current list key; whether the document has
// short-list postings is a bit of its Score-table row (docRow.short), which
// the resolvers read anyway.  Updates are processed with Algorithm 1,
// queries with Algorithm 2 (Algorithm 3 when term scores are combined in);
// the query keeps scanning past the first k results until the threshold
// bound guarantees no unseen document can beat them, which is what makes the
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
	// attainable reports that an unseen document may score exactly
	// maxPossible (see rankedQuery).
	attainable bool
	// prepare derives the order's build-time directory (score directory,
	// chunk boundaries) from the corpus being built.
	prepare func(bc *builtCorpus)
	// resolve is lines 12-21 of Algorithm 2: decide which copy of the
	// candidate is authoritative and fetch its latest score.  A candidate is
	// dropped iff the document's postings moved to the short lists (its
	// Score row's short bit) and the candidate's position is not the list
	// key its ListScore/ListChunk row records.  The order of the two table
	// reads is per list order.  Score-Threshold reads its ListScore table
	// first: a never-updated document's long-list posting carries its latest
	// score, so it needs no Score lookup.  The Chunk orders read the Score
	// table first and cut the candidate's offer (ctx.offer of the score) at
	// the heap's admission bar; only an admitted candidate of a moved
	// document is checked against the ListChunk table.  The cut is exact:
	// that check can only drop a candidate (a stale long-list copy), and one
	// the heap would not admit is dropped by Add either way, so the heap
	// takes the same Adds in the same order and its minimum, the stopping
	// rule and the results are unchanged.
	// The reads stay per order by measurement too: candidates of a
	// score-ordered list arrive in no document order, so full descents beat
	// the leaf-locality probes a chunk's ascending documents reward.
	resolve resolveFunc
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
		// Algorithm 1 leaves a score equal to t·listScore unrewritten.
		attainable: true,
		prepare:    func(bc *builtCorpus) { b.scoreDir = postings.BuildScoreDir(bc.allScores()) },
		resolve: func(ctx *queryCtx, g *postings.Group) (float64, bool, error) {
			entry, exists, err := ctx.snap.table.Get(g.Doc)
			if err != nil {
				return 0, false, err
			}
			if !exists {
				// Never updated: the long-list score is the latest score.
				return g.SortKey, true, nil
			}
			row, ok, err := ctx.score.Descend(g.Doc)
			if err != nil || !ok || row.deleted {
				return 0, false, err
			}
			if row.short && g.SortKey != entry.val {
				// The short-list copy (at sort key entry.val) is authoritative;
				// any other appearance is the stale long-list copy.
				return 0, false, nil
			}
			// The authoritative copy, but its stored score may be stale.
			return row.val, true, nil
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
// compensate for the slack.  In the Chunk-TermScore layout every posting
// also carries the document's normalized term weight (§4.3.3).
func chunkOrder(b *base) listOrder {
	if b.chunks == nil {
		// Not built yet: one chunk, as a build over no documents leaves.
		b.chunks = buildChunker(nil, b.cfg.ChunkRatio, b.cfg.MinChunkSize)
	}
	return listOrder{
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
		// Within a chunk the candidates arrive in ascending document order, so
		// both tables are walked left to right through the query context's
		// leaf-locality probes instead of descended per candidate.  Score
		// first, ListChunk only for a moved document's candidate the heap
		// admits (see listOrder.resolve).
		resolve: func(ctx *queryCtx, g *postings.Group) (float64, bool, error) {
			row, ok, err := ctx.score.Get(g.Doc)
			if err != nil || !ok || row.deleted {
				return 0, false, err
			}
			offer := ctx.offer(g, row.val)
			if !ctx.heap.Admits(int64(g.Doc), offer) {
				return 0, false, nil
			}
			if !row.short {
				return offer, true, nil
			}
			entry, exists, err := ctx.list.Get(g.Doc)
			if err == nil && !exists {
				err = errMissingListRow(g.Doc)
			}
			if err != nil {
				return 0, false, err
			}
			// A moved document's long-list copy is stale; its short copy is
			// processed instead.
			return offer, g.SortKey == entry.val, nil
		},
	}
}

// buildLists implements kindMethod: the order's build-time directory, then
// the long lists (see base.buildLists).
func (m *thresholdMethod) buildLists(bc *builtCorpus) error {
	m.order.prepare(bc)
	return m.base.buildLists(bc)
}

// applyScore implements kindMethod: Algorithm 1, over list keys.  Whether
// the postings move is decided from the rows as they stand, and the content
// a move needs is read before the first write, so an update that fails
// changes nothing.
func (m *thresholdMethod) applyScore(doc DocID, newScore float64) error {
	old, changed, err := m.scoreChange(doc, newScore)
	if !changed {
		return err
	}
	entry, exists, err := m.listEntry(doc, old)
	if err != nil {
		return err
	}
	listKey, inShort := entry.val, old.short
	if !exists {
		listKey = m.keyOf(old.val)
	}
	newKey := m.keyOf(newScore)
	if newKey <= m.order.thresholdValueOf(listKey) {
		m.setScore(doc, newScore, inShort)
		if !exists {
			m.table.Put(doc, docRow{val: listKey})
		}
		return nil
	}
	tokens, err := m.docTokens(doc)
	if err != nil {
		return fmt.Errorf("index: %s update for %d needs document content: %w", m.Name(), doc, err)
	}
	for _, tw := range docTermWeights(tokens) {
		if inShort {
			m.lists.Delete(tw.term, listKey, doc)
		}
		m.lists.Put(tw.term, newKey, doc, postings.OpAdd, tw.w)
		m.counters.shortListPostingsWritten.Add(1)
	}
	m.table.Put(doc, docRow{val: newKey})
	m.setScore(doc, newScore, true)
	return nil
}

// TopK implements Method: Algorithm 2, or Algorithm 3 for a combined
// SVR + term-score query.
func (m *thresholdMethod) TopK(q Query) (*QueryResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.WithTermScores && !m.termScores() {
		return nil, ErrTermScoresUnsupported
	}
	s, guard, err := m.acquire()
	if err != nil {
		return nil, err
	}
	defer guard.Leave()
	ctx := newQueryCtx(s, &q)
	defer ctx.release()
	return m.topK(ctx, q)
}

// topK evaluates a validated query in a context bound to a pinned snapshot.
func (m *thresholdMethod) topK(ctx *queryCtx, q Query) (*QueryResult, error) {
	if q.WithTermScores {
		return m.topKTermScores(ctx.snap, ctx, q)
	}
	if err := m.listStreams(ctx.snap, ctx, q.Terms); err != nil {
		return nil, err
	}
	return m.runRanked(ctx, rankedQuery{
		conjunctive: !q.Disjunctive,
		maxPossible: m.order.maxPossible,
		attainable:  m.order.attainable,
		resolve:     m.order.resolve,
	})
}

// listStreams fills ctx.streams with SL(t) ∪ LL(t) for every query term.
func (m *thresholdMethod) listStreams(s *snap, ctx *queryCtx, terms []string) error {
	ctx.streams = ctx.streams[:0]
	for _, term := range terms {
		st, err := m.termStream(s, term)
		if err != nil {
			return err
		}
		ctx.streams = append(ctx.streams, st)
	}
	return nil
}
