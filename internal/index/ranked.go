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

// queryCtx is the per-query state TopK evaluates a query in: the query
// and the snapshot it evaluates against, the result heap, the per-term
// stream slice, the IDF/epsilon arrays, the remainList and the stopping
// rule's state of Algorithm 3, the Score-table probes with the leaf images
// they read through, and the work the scans did.
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
	// query is a copy of the query being evaluated; a combined SVR +
	// term-score query (WithTermScores) offers candidates to the heap at
	// their combined score (see offer).
	query Query
	snap  *snap
	// heap is held by value, so a query's heap allocates only its entries.
	heap     topk.Heap
	streams  []postings.BatchIterator
	idfs     []float64
	epsilons []float64
	score    docProbe
	remain   remainList
	// merge is the query's one merge, reset for each scan.
	merge postings.Merge
	// scoreAside is a second cursor over the Score table: Algorithm 3 prunes
	// its remainList, in ascending document order, between candidates
	// ctx.score resolves in ascending order too, and neither walk moves the
	// other's leaf.
	scoreAside btree.Probe
	// epsilonSum and lastCID are Algorithm 3's stopping rule's: the sum of
	// the per-term caps ε_i·idf_i, and the chunk of the last position it
	// was asked at.  err is the error a stopping rule hit; it ends the scan.
	epsilonSum float64
	lastCID    int32
	err        error
	// scanned sums the postings the query's scans passed; stopped reports
	// that the last scan's stopping rule ended it.
	scanned int
	stopped bool
}

var queryCtxPool = sync.Pool{New: func() any { return &queryCtx{} }}

// newQueryCtx returns an empty context for q whose probes read the
// snapshot's tables.
func newQueryCtx(s *snap, q *Query) *queryCtx {
	c := queryCtxPool.Get().(*queryCtx)
	c.query = *q
	c.snap = s
	c.heap = *topk.New(q.K)
	c.streams = c.streams[:0]
	c.idfs = c.idfs[:0]
	c.epsilons = c.epsilons[:0]
	c.score.bind(s.score)
	c.scoreAside.Reset(s.score.view)
	c.epsilonSum, c.lastCID, c.err = 0, math.MinInt32, nil
	c.scanned, c.stopped = 0, false
	return c
}

// getScoreAside is ctx.score.Get through scoreAside, counted with the Score
// probe's lookups.
func (c *queryCtx) getScoreAside(doc DocID) (docRow, bool, error) {
	c.score.lookups++
	key := docKey(doc)
	return c.score.v.width.lookup(c.scoreAside.Get(key[:]))
}

// release returns the context to the pool.  The caller must not touch the
// context (or slices taken from it) afterwards.
func (c *queryCtx) release() {
	for i := range c.streams {
		c.streams[i] = nil // drop iterator references so the pool retains no streams
	}
	// Likewise the query, the snapshot and the probes: a pooled context must
	// not keep a query's terms or an index alive.
	c.query, c.snap, c.heap, c.err = Query{}, nil, topk.Heap{}, nil
	c.merge.Reset(0)
	c.score.bind(docView{})
	c.scoreAside.Reset(btree.View{})
	queryCtxPool.Put(c)
}

// TopK implements Method for every kind, and is the one query path: it
// rejects what it cannot evaluate (Query.Validate, and a term-score query on
// a kind without term weights), pins the published snapshot, asks the kind
// for its plan — the streams, the stopping rule and the resolver, the only
// things the paper's query algorithms vary per kind — and runs it through
// runRanked.  Algorithm 3 is two runs of the same loop; its plan runs the
// first (see planTermScores).
func (b *base) TopK(q Query) (*QueryResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.WithTermScores && !b.termScores() {
		return nil, ErrTermScoresUnsupported
	}
	s, guard, err := b.acquire()
	if err != nil {
		return nil, err
	}
	defer guard.Leave()
	ctx := newQueryCtx(s, &q)
	defer ctx.release()
	b.counters.queries.Add(1)
	plan, err := b.self.plan(ctx)
	if err == nil {
		err = ctx.runRanked(plan)
	}
	if err != nil {
		return nil, err
	}
	b.counters.postingsScanned.Add(uint64(ctx.scanned))
	return &QueryResult{
		Results:         ctx.heap.Results(),
		PostingsScanned: ctx.scanned,
		ScoreLookups:    ctx.score.lookups,
		Stopped:         ctx.stopped,
	}, nil
}

// rankedQuery is one scan of the query loop, the shared skeleton of
// Algorithm 2 and its relatives: merge the per-term streams (each a short
// list laid over a long list, with ADD/REM content updates applied) in
// descending list order, detect candidates, resolve their current scores,
// and stop as soon as no unseen document can beat the current top-k.
//
// The pieces that differ between methods are plain functions of the query
// context (no per-query closure is built):
//
//   - need is the number of streams a position must be held by to be a
//     candidate: every stream for a conjunction (ctx.need), one for a
//     disjunction and for both of Algorithm 3's scans.
//
//   - stop(ctx, sortKey) is the early-termination test at a list position,
//     asked by the merge at the first position of each call and at every
//     sort-key change.  Algorithm 2's holds a bound on the current score of
//     every document whose postings have not been reached against the heap
//     (queryCtx.holdsAbove): Score-Threshold's thresholdValueOf(listScore) =
//     t·s, the Chunk orders' key ceiling of the chunks up to cid
//     (snap.ceiling), the exact Score method's list score itself.
//     Algorithm 3's is tested as its scan leaves a chunk, holds the same
//     ceiling plus the term-score caps against the heap and also sees the
//     remainList.  The ID family has none
//     (nil): no bound exists on unseen documents, so every list is scanned
//     to the end, exactly as §4.2.1 describes.
//
//   - resolve(ctx, group) produces the score the candidate is offered to the
//     heap at and decides whether this particular appearance of the document
//     should be counted (the "is it from the short list / is it superseded"
//     logic of Algorithm 2 lines 12-21).
type rankedQuery struct {
	need    int
	stop    func(ctx *queryCtx, sortKey float64) bool
	resolve resolveFunc
}

// resolveFunc resolves one candidate: the score it is offered to ctx.heap at
// (ctx.offer of its current SVR score), and whether this appearance of the
// document counts.  A resolver may drop, with include=false, any candidate
// whose offer ctx.heap does not admit: Add would reject it anyway.
type resolveFunc func(ctx *queryCtx, g *postings.Group) (score float64, include bool, err error)

// need is a plain query's rankedQuery.need: every stream for a conjunction,
// one for a disjunction.
func (c *queryCtx) need() int {
	if c.query.Disjunctive {
		return 1
	}
	return len(c.streams)
}

// runRanked is the query loop, the one place a query merges: it runs q over
// ctx.streams, adds every candidate the resolver includes to the heap, and
// adds the postings the merge passed to ctx.scanned.  One postings.Merge,
// the context's, serves every query shape: it returns the positions at
// least q.need streams hold, and counts and stop-checks the positions it
// passes itself.  The per-term streams move postings in batches (see
// postings.BatchIterator); the merge's batch buffers are pooled and
// released when the scan ends, so the steady-state query path performs no
// per-posting allocation.
func (c *queryCtx) runRanked(q rankedQuery) error {
	merge := &c.merge
	merge.Reset(q.need, c.streams...)
	defer merge.Close()
	var stop func(sortKey float64) bool
	if q.stop != nil {
		stop = func(sortKey float64) bool { return q.stop(c, sortKey) }
	}
	for {
		g, ok, err := merge.Next(stop)
		if err == nil {
			err = c.err
		}
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		score, include, err := q.resolve(c, g)
		if err != nil {
			return err
		}
		if include {
			c.heap.Add(int64(g.Doc), score)
		}
	}
	c.scanned += merge.Scanned
	c.stopped = merge.Stopped
	return nil
}

// holdsAbove is Algorithm 2's stopping rule (lines 9-11) for bound, a bound
// on the current score of every unseen document, including the one at the
// scan position: once k results above it are held — or at it, when no
// unseen document can attain it and win the heap's tie rule (the lower doc
// ID wins) — the answer cannot change.  Score-Threshold's bound and the
// Chunk orders' key ceiling are attainable; the Score method's is the next
// posting's own score, reached only by documents that sort after every held
// one at that score and so lose the tie.
func (c *queryCtx) holdsAbove(bound float64, attainable bool) bool {
	min, full := c.heap.MinScore()
	return full && (bound < min || bound == min && !attainable)
}

// offer is the score candidate g is ranked by, given its current SVR score:
// svr itself, or, for a combined query, the ranking function of §4.3.3,
// F(d) = svr(d) + Σ_i termScore_i(d) over the query terms the group holds.
// A resolver that cuts a candidate at the heap's admission bar computes the
// offer here and returns it for the Add, so the cut and the Add can never
// rank the candidate by different scores.
func (c *queryCtx) offer(g *postings.Group, svr float64) float64 {
	if !c.query.WithTermScores {
		return svr
	}
	for i, present := range g.Present {
		if present {
			svr += text.TFIDF(g.Entries[i].TermScore, c.idfs[i])
		}
	}
	return svr
}

// termStreams fills ctx.streams with every query term's stream, built from
// its long list, opened in the kind's layout (a term without one is an
// empty list), and its short list.  With short-list postings present this
// is "SL(ti) ∪ LL(ti)", the short list laid over the long one; with an
// empty short list — the common case for most terms, and for every term
// right after a build or merge — the long list is consumed directly, so
// the query skips a pipeline stage and its batch buffers, and an ID list
// keeps its SeekDoc for a conjunctive merge to leapfrog with.  The short
// list streams through a cursor whose first More, one descent, tells
// whether it is empty; an empty one's cursor is closed at once.
func (b *base) termStreams(ctx *queryCtx) error {
	s := ctx.snap
	ctx.streams = ctx.streams[:0]
	for _, term := range ctx.query.Terms {
		long, err := b.openList(s.longRefs, term, s.scoreDir, b.kind.layout)
		if err != nil {
			return err
		}
		short := s.lists.Cursor(term)
		if short.cur.More() {
			ctx.streams = append(ctx.streams, postings.NewOverlay(short, long))
			continue
		}
		err = short.cur.Err()
		short.Close()
		if err != nil {
			return err
		}
		ctx.streams = append(ctx.streams, long)
	}
	return nil
}

// openList opens a term's list blob among refs in layout; a term without
// one is an empty list.
func (b *base) openList(refs map[string]blob.Ref, term string, scoreDir []float64, layout postings.Layout) (postings.BatchIterator, error) {
	ref, ok := refs[term]
	if !ok {
		return postings.NewSliceIterator(nil), nil
	}
	return postings.Open(b.store.NewReader(ref), scoreDir, layout)
}
