package index

import (
	"math"
	"sync"

	"svrdb/internal/postings"
	"svrdb/internal/topk"
)

// queryCtx is the per-query scratch a TopK call assembles its pipeline in:
// the per-term stream slice, the IDF/epsilon arrays of the TermScore
// algorithms, and the Score-table and ListScore/ListChunk-table probes with
// the leaf images they read through.  Every query gets its own context from
// a sync.Pool — two concurrent Searches never share scratch, and the
// steady-state query path reuses the slices and leaf images instead of
// allocating them anew per query (or, for the images, per leaf jump).  The
// context must be released only after the query is fully evaluated (the
// group merger reads the streams it references, the resolvers its probes).
type queryCtx struct {
	streams  []postings.BatchIterator
	idfs     []float64
	epsilons []float64
	score    scoreProbe
	list     listProbe
}

var queryCtxPool = sync.Pool{New: func() any { return &queryCtx{} }}

// newQueryCtx returns an empty context whose probes read the snapshot's
// tables.
func newQueryCtx(s *snap) *queryCtx {
	c := queryCtxPool.Get().(*queryCtx)
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
	// Likewise the probes: a pooled context must not keep an index alive.
	c.score.bind(scoreView{})
	c.list.bind(listView{})
	queryCtxPool.Put(c)
}

// rankedQuery is the shared skeleton of Algorithm 2 and its relatives: merge
// the per-term streams (each the union of a short and a long list, already
// collapsed for ADD/REM content updates) in descending list-order, detect
// candidates, resolve their current scores, and stop as soon as no unseen
// document can beat the current top-k.
//
// The pieces that differ between methods are injected:
//
//   - maxPossible(sortKey) bounds the current score of every document whose
//     postings have not been reached yet, given the list position about to be
//     processed.  Score-Threshold uses thresholdValueOf(listScore) = t·s;
//     Chunk uses the upper score bound of chunk (cid+1); the exact Score
//     method uses the list score itself; the ID methods use +Inf, which
//     disables early termination and forces a full scan, exactly as §4.2.1
//     describes.
//
//   - resolve(group) produces the candidate's current score and decides
//     whether this particular appearance of the document should be counted
//     (the "is it from the short list / is it superseded" logic of
//     Algorithm 2 lines 12-21).
type rankedQuery struct {
	streams     []postings.BatchIterator
	k           int
	conjunctive bool
	maxPossible func(sortKey float64) float64
	resolve     func(g postings.Group) (score float64, include bool, err error)
}

// run executes the query and returns the ranked results with work counters.
// The per-term streams move postings in batches (see postings.BatchIterator);
// the merger's scratch buffers are pooled and released when the query ends,
// so the steady-state query path performs no per-posting allocation.
func (b *base) runRanked(q rankedQuery) (*QueryResult, error) {
	b.counters.queries.Add(1)
	heap := topk.New(q.k)
	merger := postings.NewGroupMerger(q.streams...)
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
			if q.maxPossible(g.SortKey) <= min {
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
		score, include, err := q.resolve(g)
		if err != nil {
			return nil, err
		}
		if include {
			heap.Add(int64(g.Doc), score)
		}
	}
	res.Results = heap.Results()
	b.counters.postingsScanned.Add(uint64(res.PostingsScanned))
	return res, nil
}

// neverStop is the maxPossible function of the ID family: no bound exists on
// unseen documents, so the whole list must be scanned.
func neverStop(float64) float64 { return math.Inf(1) }

// combinedStream builds a term's query stream from its short and long
// lists.  With short-list postings present this is the
// "SL(ti) ∪ LL(ti)" union with ADD/REM collapsing; with an empty short
// list — the common case for most terms, and for every term right after a
// build or merge — both stages are identities, so the long list is consumed
// directly and the query skips two pipeline stages and their batch buffers.
func combinedStream(short *postings.SliceIterator, long postings.BatchIterator) postings.BatchIterator {
	if short.Len() == 0 {
		return long
	}
	return postings.NewCollapseOps(postings.NewUnion(short, long))
}
