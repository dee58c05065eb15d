package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
)

// idMethod implements the ID method of §4.2.1 and, when built with term
// scores, the ID-TermScore baseline of §5.2.
//
// The long inverted list of each term holds the IDs of the documents
// containing it in ascending ID order (d-gap compressed), so a score update
// never touches the lists: only the Score table changes.  The price is paid
// at query time: because the lists carry no score information, every list
// must be scanned to the end and every candidate's score looked up, no
// matter how small k is.  The one exception is a multi-term conjunctive
// query, where the intersection itself bounds the work: the query planner
// leapfrogs the lists with SeekDoc so that super-blocks proven (by their
// skip headers) to contain no common document are never decoded or even
// paged in.
//
// Incrementally inserted documents and content updates go to an auxiliary
// ID-ordered short list through the maintenance paths every kind shares
// (Appendix A), filed under the constant key 0; score updates never touch
// it.
type idMethod struct {
	*base
	withTermScores bool
	// stream is openSeeker in the shape termStream takes, bound once so the
	// scan path allocates no method value per query.
	stream func(*snap, *blob.Reader) (postings.BatchIterator, error)
}

func newIDMethod(b *base, withTermScores bool) kindMethod {
	m := &idMethod{base: b, withTermScores: withTermScores}
	m.stream = func(_ *snap, r *blob.Reader) (postings.BatchIterator, error) { return m.openSeeker(r) }
	b.keyOf = func(float64) float64 { return 0 }
	return m
}

// buildLists implements kindMethod.
func (m *idMethod) buildLists(bc *builtCorpus) error {
	// Published snapshots share the ref map by pointer, so accumulate into a
	// fresh map and swap it in wholesale.
	refs := make(map[string]blob.Ref, len(bc.termDocs))
	packer := m.store.NewPacker()
	for _, term := range bc.terms() {
		var data []byte
		if m.withTermScores {
			builder := postings.NewBlockIDTermListBuilder()
			for _, dw := range bc.termDocs[term] {
				if err := builder.Add(dw.doc, dw.w); err != nil {
					return fmt.Errorf("index: build %s list for %q: %w", m.Name(), term, err)
				}
			}
			data = builder.Bytes()
			m.longRawBytes += uint64(builder.Len()) * rawBytesIDTermPosting
		} else {
			builder := postings.NewBlockIDListBuilder()
			for _, dw := range bc.termDocs[term] {
				if err := builder.Add(dw.doc); err != nil {
					return fmt.Errorf("index: build %s list for %q: %w", m.Name(), term, err)
				}
			}
			data = builder.Bytes()
			m.longRawBytes += uint64(builder.Len()) * rawBytesIDPosting
		}
		ref, err := packer.Put(data)
		if err != nil {
			return err
		}
		refs[term] = ref
		m.longBytes += uint64(len(data))
	}
	if err := packer.Close(); err != nil {
		return err
	}
	m.longRefs = refs
	return nil
}

// resolveCurrent is the ID family's candidate resolver: the current-score
// lookup, offered as is or, for a combined query, with the per-term TF-IDF
// contributions added (ctx.idfs is aligned with the query terms).
// Candidates arrive in ascending document order, so the lookups run through
// the query's probe, which reuses the leaf of the previous one.
func resolveCurrent(ctx *queryCtx, g *postings.Group) (float64, bool, error) {
	svr, live, err := rowScore(ctx.score.Get(g.Doc))
	if err != nil || !live {
		return 0, false, err
	}
	return ctx.offer(g, svr), true, nil
}

// TopK implements Method.
func (m *idMethod) TopK(q Query) (*QueryResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.WithTermScores && !m.withTermScores {
		return nil, ErrTermScoresUnsupported
	}

	s, guard, err := m.acquire()
	if err != nil {
		return nil, err
	}
	defer guard.Leave()

	ctx := newQueryCtx(s, &q)
	defer ctx.release()

	// Multi-term conjunctive queries with no auxiliary postings intersect
	// via leapfrog seeks instead of scanning every list end to end.
	if !q.Disjunctive && len(q.Terms) > 1 && s.lists.Len() == 0 {
		return m.leapfrogTopK(s, ctx, q)
	}

	for i, term := range q.Terms {
		st, err := m.termStream(s, term, m.stream)
		if err != nil {
			return nil, err
		}
		ctx.streams = append(ctx.streams, st)
		ctx.idfs = append(ctx.idfs, s.queryIDF(&q, i))
	}

	return m.runRanked(ctx, rankedQuery{
		conjunctive: !q.Disjunctive,
		maxPossible: neverStop,
		resolve:     resolveCurrent,
	})
}

// docSeeker is a posting stream that can reposition forward to the first
// entry at or past a document ID without decoding the skipped range.
type docSeeker interface {
	postings.BatchIterator
	SeekDoc(doc DocID) error
}

// openSeeker opens one of the kind's long lists.
func (m *idMethod) openSeeker(r *blob.Reader) (docSeeker, error) {
	if m.withTermScores {
		return postings.NewStreamIDTermList(r)
	}
	return postings.NewStreamIDList(r)
}

// leapfrogTopK intersects the query terms' long lists with the classic
// leapfrog join: every stream repeatedly seeks to the maximum head document,
// and only documents all streams agree on are resolved.  SeekDoc proves
// via skip headers that a super-block holds no document >= the target, so
// sparse intersections skip most of every list's pages.
func (m *idMethod) leapfrogTopK(s *snap, ctx *queryCtx, q Query) (*QueryResult, error) {
	seekers := make([]docSeeker, 0, len(q.Terms))
	for i, term := range q.Terms {
		ref, ok := s.longRefs[term]
		if !ok {
			// A term with no long list (and the short lists are empty, or we
			// would not be here) makes the conjunction empty.
			m.counters.queries.Add(1)
			return &QueryResult{Stopped: true}, nil
		}
		ds, err := m.openSeeker(m.store.NewReader(ref))
		if err != nil {
			return nil, err
		}
		seekers = append(seekers, ds)
		ctx.idfs = append(ctx.idfs, s.queryIDF(&q, i))
	}

	heads := make([]postings.Entry, len(seekers))
	var one [1]postings.Entry
	scanned := 0
	// advance repositions stream i at the first entry >= target and pulls it
	// into heads[i]; alive=false means the list is exhausted (intersection
	// complete).
	advance := func(i int, target DocID) (alive bool, err error) {
		if err := seekers[i].SeekDoc(target); err != nil {
			return false, err
		}
		n, err := seekers[i].NextBatch(one[:])
		if err != nil || n == 0 {
			return false, err
		}
		heads[i] = one[0]
		scanned++
		return true, nil
	}

	// Position every stream on its first posting.
	for i := range seekers {
		alive, err := advance(i, 0)
		if err != nil {
			return nil, err
		}
		if !alive {
			m.counters.queries.Add(1)
			return &QueryResult{Stopped: true}, nil
		}
	}

	m.counters.queries.Add(1)
	heap := &ctx.heap
	res := &QueryResult{}
	group := &postings.Group{
		Entries: make([]postings.Entry, len(seekers)),
		Present: make([]bool, len(seekers)),
		Count:   len(seekers),
	}
	for i := range group.Present {
		group.Present[i] = true
	}

loop:
	for {
		target := heads[0].Doc
		for i := 1; i < len(heads); i++ {
			if heads[i].Doc > target {
				target = heads[i].Doc
			}
		}
		aligned := true
		for i := range heads {
			if heads[i].Doc < target {
				alive, err := advance(i, target)
				if err != nil {
					return nil, err
				}
				if !alive {
					break loop
				}
				if heads[i].Doc != target {
					aligned = false
				}
			}
		}
		if !aligned {
			continue
		}
		group.Doc = target
		copy(group.Entries, heads)
		score, include, err := resolveCurrent(ctx, group)
		if err != nil {
			return nil, err
		}
		if include {
			heap.Add(int64(target), score)
		}
		for i := range heads {
			alive, err := advance(i, target+1)
			if err != nil {
				return nil, err
			}
			if !alive {
				break loop
			}
		}
	}

	res.Results = heap.Results()
	res.PostingsScanned = scanned
	res.ScoreLookups = ctx.score.lookups
	m.counters.postingsScanned.Add(uint64(scanned))
	return res, nil
}
