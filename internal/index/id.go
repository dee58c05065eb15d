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
// query, where the intersection itself bounds the work: the merge leapfrogs
// every term's long list with SeekDoc, so that super-blocks proven (by their
// skip headers) to contain no common document are never decoded or even
// paged in.  A term with short-list postings is read through the overlay,
// which cannot seek; the other terms still leapfrog.
//
// Incrementally inserted documents and content updates go to an auxiliary
// ID-ordered short list through the maintenance paths every kind shares
// (Appendix A), filed under the constant key 0; score updates never touch
// it.
type idMethod struct {
	*base
	withTermScores bool
	// stream opens one of the kind's long lists in the shape termStream
	// takes, bound once so the scan path allocates no method value per query.
	stream func(*snap, *blob.Reader) (postings.BatchIterator, error)
}

func newIDMethod(b *base, withTermScores bool) kindMethod {
	m := &idMethod{base: b, withTermScores: withTermScores}
	m.stream = func(_ *snap, r *blob.Reader) (postings.BatchIterator, error) {
		if withTermScores {
			return postings.NewStreamIDTermList(r)
		}
		return postings.NewStreamIDList(r)
	}
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
