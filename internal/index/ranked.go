package index

import (
	"math"
	"sync"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
	"svrdb/internal/topk"
)

// queryCtx is the per-query scratch a TopK call assembles its pipeline in:
// the snapshot it evaluates against, the per-term stream slice, the
// IDF/epsilon arrays of the TermScore algorithms, and the Score-table and
// ListScore/ListChunk-table probes with the leaf images they read through.
// The Score probe is also where the query's Score-table lookups are counted
// (QueryResult.ScoreLookups): every score a query reads, it reads through
// ctx.score.  Every query gets its own context from a sync.Pool — two
// concurrent Searches never share scratch, and the steady-state query path
// reuses the slices and leaf images instead of allocating them anew per
// query (or, for the images, per leaf jump).  The context must be released
// only after the query is fully evaluated (the group merger reads the
// streams it references, the resolvers its probes).
type queryCtx struct {
	snap     *snap
	streams  []postings.BatchIterator
	idfs     []float64
	epsilons []float64
	score    docProbe
	list     docProbe
}

var queryCtxPool = sync.Pool{New: func() any { return &queryCtx{} }}

// newQueryCtx returns an empty context whose probes read the snapshot's
// tables.
func newQueryCtx(s *snap) *queryCtx {
	c := queryCtxPool.Get().(*queryCtx)
	c.snap = s
	c.streams = c.streams[:0]
	c.idfs = c.idfs[:0]
	c.epsilons = c.epsilons[:0]
	c.score.bind(s.score)
	c.list.bind(s.table)
	return c
}

// release returns the context to the pool.  The caller must not touch the
// context (or slices taken from it) afterwards.
func (c *queryCtx) release() {
	for i := range c.streams {
		c.streams[i] = nil // drop iterator references so the pool retains no streams
	}
	// Likewise the snapshot and the probes: a pooled context must not keep an
	// index alive.
	c.snap = nil
	c.score.bind(docView{})
	c.list.bind(docView{})
	queryCtxPool.Put(c)
}

// rankedQuery is the shared skeleton of Algorithm 2 and its relatives: merge
// the per-term streams (each the union of a short and a long list, already
// collapsed for ADD/REM content updates) in descending list-order, detect
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
//   - resolve(ctx, group) produces the candidate's current score and decides
//     whether this particular appearance of the document should be counted
//     (the "is it from the short list / is it superseded" logic of
//     Algorithm 2 lines 12-21).
type rankedQuery struct {
	k           int
	conjunctive bool
	maxPossible func(ctx *queryCtx, sortKey float64) float64
	resolve     resolveFunc
}

// resolveFunc resolves one candidate: its current score, and whether this
// appearance of the document counts.
type resolveFunc func(ctx *queryCtx, g postings.Group) (score float64, include bool, err error)

// runRanked executes the query over ctx.streams and returns the ranked
// results with work counters.  The per-term streams move postings in batches
// (see postings.BatchIterator); the merger's scratch buffers are pooled and
// released when the query ends, so the steady-state query path performs no
// per-posting allocation.
func (b *base) runRanked(ctx *queryCtx, q rankedQuery) (*QueryResult, error) {
	b.counters.queries.Add(1)
	heap := topk.New(q.k)
	merger := postings.NewGroupMerger(ctx.streams...)
	defer merger.Close()
	res := &QueryResult{}
	for {
		g, ok, err := merger.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.PostingsScanned += g.Count

		// Early-termination check (Algorithm 2 lines 9-11): every unseen
		// document, including this one, has a current score bounded by
		// maxPossible(g.SortKey); once k results at or above that bound are
		// held, the answer cannot change.
		if min, full := heap.MinScore(); full {
			if q.maxPossible(ctx, g.SortKey) <= min {
				res.Stopped = true
				break
			}
		}

		if q.conjunctive && !g.ContainsAll() {
			continue
		}
		if !q.conjunctive && g.Count == 0 {
			continue
		}
		score, include, err := q.resolve(ctx, g)
		if err != nil {
			return nil, err
		}
		if include {
			heap.Add(int64(g.Doc), score)
		}
	}
	res.Results = heap.Results()
	res.ScoreLookups = ctx.score.lookups
	b.counters.postingsScanned.Add(uint64(res.PostingsScanned))
	return res, nil
}

// combinedScore is the ranking function of §4.3.3 for one candidate:
// F(d) = svr(d) + Σ_i termScore_i(d) over the query terms the group holds.
func combinedScore(svr float64, g postings.Group, idfs []float64) float64 {
	for i, present := range g.Present {
		if present {
			svr += text.TFIDF(g.Entries[i].TermScore, idfs[i])
		}
	}
	return svr
}

// neverStop is the maxPossible function of the ID family: no bound exists on
// unseen documents, so the whole list must be scanned.
func neverStop(*queryCtx, float64) float64 { return math.Inf(1) }

// termStream builds a term's query stream from its long list, opened with
// the kind's stream constructor (a term without one is an empty list), and
// its short list.  With short-list postings present this is the
// "SL(ti) ∪ LL(ti)" union with ADD/REM collapsing; with an empty short
// list — the common case for most terms, and for every term right after a
// build or merge — both stages are identities, so the long list is consumed
// directly and the query skips two pipeline stages and their batch buffers.
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
	return postings.NewCollapseOps(postings.NewUnion(short, long)), nil
}
