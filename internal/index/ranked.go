package index

import (
	"math"
	"sync"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/btree"
	"svrdb/internal/text"
	"svrdb/internal/topk"
)

// queryCtx is the per-query scratch a TopK call assembles its pipeline in:
// the snapshot it evaluates against, the result heap, the per-term stream
// slice, the IDF/epsilon arrays and the remainList of the TermScore
// algorithm, and the Score-table and ListScore/ListChunk-table probes with
// the leaf images they read through.  A resolver reads the heap to skip the
// work of deciding a candidate the heap would not admit anyway.
// The Score probe is also where the query's Score-table lookups are counted
// (QueryResult.ScoreLookups): every score a query reads, it reads through
// ctx.score or, when Algorithm 3 prunes its remainList, through
// getScoreAside.  Every query gets its own context from a sync.Pool — two
// concurrent Searches never share scratch, and the steady-state query path
// reuses the slices and leaf images instead of allocating them anew per
// query (or, for the images, per leaf jump).  The context must be released
// only after the query is fully evaluated (the merge reads the streams it
// references, the resolvers its probes).
type queryCtx struct {
	snap *snap
	// heap is held by value, so a query's heap allocates only its entries.
	heap topk.Heap
	// combined marks a combined SVR + term-score query: candidates are
	// offered to the heap at their combined score (see offer).
	combined bool
	streams  []postings.BatchIterator
	idfs     []float64
	epsilons []float64
	score    docProbe
	list     docProbe
	remain   remainList
	// scoreAside is a second cursor over the Score table: Algorithm 3 prunes
	// its remainList, in ascending document order, between candidates
	// ctx.score resolves in ascending order too, and neither walk moves the
	// other's leaf.
	scoreAside btree.Probe
}

var queryCtxPool = sync.Pool{New: func() any { return &queryCtx{} }}

// newQueryCtx returns an empty context for q whose probes read the
// snapshot's tables.
func newQueryCtx(s *snap, q *Query) *queryCtx {
	c := queryCtxPool.Get().(*queryCtx)
	c.snap = s
	c.heap = *topk.New(q.K)
	c.combined = q.WithTermScores
	c.streams = c.streams[:0]
	c.idfs = c.idfs[:0]
	c.epsilons = c.epsilons[:0]
	c.score.bind(s.score)
	c.list.bind(s.table)
	c.scoreAside.Reset(s.score.view)
	return c
}

// getScoreAside is ctx.score.Get through scoreAside, counted with the Score
// probe's lookups.
func (c *queryCtx) getScoreAside(doc DocID) (docRow, bool, error) {
	c.score.lookups++
	key := docKey(doc)
	return c.score.v.flags.lookup(c.scoreAside.Get(key[:]))
}

// release returns the context to the pool.  The caller must not touch the
// context (or slices taken from it) afterwards.
func (c *queryCtx) release() {
	for i := range c.streams {
		c.streams[i] = nil // drop iterator references so the pool retains no streams
	}
	// Likewise the snapshot and the probes: a pooled context must not keep an
	// index alive.
	c.snap, c.heap = nil, topk.Heap{}
	c.score.bind(docView{})
	c.list.bind(docView{})
	c.scoreAside.Reset(btree.View{})
	queryCtxPool.Put(c)
}

// rankedQuery is the shared skeleton of Algorithm 2 and its relatives: merge
// the per-term streams (each a short list laid over a long list, with
// ADD/REM content updates applied) in descending list-order, detect
// candidates, resolve their current scores, and stop as soon as no unseen
// document can beat the current top-k.
//
// The pieces that differ between methods are injected, as plain functions
// of the query context (no per-query closure is built):
//
//   - maxPossible(ctx, sortKey) bounds the current score of every document whose
//     postings have not been reached yet, given the list position about to be
//     processed.  Score-Threshold uses thresholdValueOf(listScore) = t·s;
//     Chunk uses the upper score bound of chunk (cid+1); the exact Score
//     method uses the list score itself; the ID methods use +Inf, which
//     disables early termination and forces a full scan, exactly as §4.2.1
//     describes.
//
//   - attainable reports that an unseen document may score exactly
//     maxPossible and still win the heap's tie rule (the lower doc ID wins),
//     so the scan stops only once the bound falls strictly below the heap
//     minimum; otherwise it stops on equality too.  Score-Threshold's bound is
//     attainable.  Chunk's is exclusive, and the Score method's bound is the
//     next posting's own score, reached only by documents that sort after
//     every held one at that score and so lose the tie.
//
//   - resolve(ctx, group) produces the score the candidate is offered to the
//     heap at and decides whether this particular appearance of the document
//     should be counted (the "is it from the short list / is it superseded"
//     logic of Algorithm 2 lines 12-21).
type rankedQuery struct {
	conjunctive bool
	maxPossible func(ctx *queryCtx, sortKey float64) float64
	attainable  bool
	resolve     resolveFunc
}

// resolveFunc resolves one candidate: the score it is offered to ctx.heap at
// (ctx.offer of its current SVR score), and whether this appearance of the
// document counts.  A resolver may drop, with include=false, any candidate
// whose offer ctx.heap does not admit: Add would reject it anyway.
type resolveFunc func(ctx *queryCtx, g *postings.Group) (score float64, include bool, err error)

// runRanked executes the query over ctx.streams and returns the ranked
// results with work counters.  One postings.Merge serves both query shapes:
// a conjunctive query is handed the positions every term holds, a
// disjunctive one every position; the merge counts and stop-checks the
// positions it passes itself.  The per-term streams move postings in
// batches (see postings.BatchIterator); the merge's scratch buffers are
// pooled and released when the query ends, so the steady-state query path
// performs no per-posting allocation.
func (b *base) runRanked(ctx *queryCtx, q rankedQuery) (*QueryResult, error) {
	b.counters.queries.Add(1)
	need := 1
	if q.conjunctive {
		need = len(ctx.streams)
	}
	merge := postings.NewMerge(need, ctx.streams...)
	defer merge.Close()
	stop := func(sortKey float64) bool { return q.stops(ctx, sortKey) }
	for {
		g, ok, err := merge.Next(stop)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := q.take(ctx, g); err != nil {
			return nil, err
		}
	}
	res := &QueryResult{
		Results:         ctx.heap.Results(),
		PostingsScanned: merge.Scanned,
		ScoreLookups:    ctx.score.lookups,
		Stopped:         merge.Stopped,
	}
	b.counters.postingsScanned.Add(uint64(res.PostingsScanned))
	return res, nil
}

// stops is the early-termination check (Algorithm 2 lines 9-11) at a list
// position of sort key sortKey: every unseen document, including the one
// there, has a current score bounded by maxPossible(sortKey); once k results
// above that bound are held — or at it, when no unseen document can attain
// it and win the tie — the answer cannot change.
func (q *rankedQuery) stops(ctx *queryCtx, sortKey float64) bool {
	min, full := ctx.heap.MinScore()
	if !full {
		return false
	}
	bound := q.maxPossible(ctx, sortKey)
	return bound < min || bound == min && !q.attainable
}

// take resolves the candidate g and adds it to the heap when it counts.
func (q *rankedQuery) take(ctx *queryCtx, g *postings.Group) error {
	score, include, err := q.resolve(ctx, g)
	if err != nil {
		return err
	}
	if include {
		ctx.heap.Add(int64(g.Doc), score)
	}
	return nil
}

// offer is the score candidate g is ranked by, given its current SVR score:
// svr itself, or, for a combined query, the ranking function of §4.3.3,
// F(d) = svr(d) + Σ_i termScore_i(d) over the query terms the group holds.
// A resolver that cuts a candidate at the heap's admission bar computes the
// offer here and returns it for the Add, so the cut and the Add can never
// rank the candidate by different scores.
func (c *queryCtx) offer(g *postings.Group, svr float64) float64 {
	if !c.combined {
		return svr
	}
	for i, present := range g.Present {
		if present {
			svr += text.TFIDF(g.Entries[i].TermScore, c.idfs[i])
		}
	}
	return svr
}

// neverStop is the maxPossible function of the ID family: no bound exists on
// unseen documents, so the whole list must be scanned.
func neverStop(*queryCtx, float64) float64 { return math.Inf(1) }

// termStream builds a term's query stream from its long list, opened with
// the kind's stream constructor (a term without one is an empty list), and
// its short list.  With short-list postings present this is
// "SL(ti) ∪ LL(ti)", the short list laid over the long one; with an empty
// short list — the common case for most terms, and for every term right
// after a build or merge — the long list is consumed directly, so the query
// skips a pipeline stage and its batch buffers, and an ID list keeps its
// SeekDoc for a conjunctive merge to leapfrog with.
func (b *base) termStream(s *snap, term string, open func(*snap, *blob.Reader) (postings.BatchIterator, error)) (postings.BatchIterator, error) {
	var long postings.BatchIterator
	if ref, ok := s.longRefs[term]; ok {
		var err error
		if long, err = open(s, b.store.NewReader(ref)); err != nil {
			return nil, err
		}
	} else {
		long = postings.NewSliceIterator(nil)
	}
	short, err := s.lists.Iterator(term)
	if err != nil {
		return nil, err
	}
	if short.Len() == 0 {
		return long, nil
	}
	return postings.NewOverlay(short, long), nil
}
