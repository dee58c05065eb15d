package index

import "svrdb/internal/postings"

// The ID family — the ID method of §4.2.1 and, built with term scores, the
// ID-TermScore baseline of §5.2 — is base itself, with no method type of
// its own.
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

// idFamily attaches a base of the ID family: its postings file under the
// constant key 0.
func idFamily(b *base) kindMethod {
	b.keyOf = func(float64) float64 { return 0 }
	return b
}

// plan implements kindMethod for the ID family: every term's stream, no
// stopping rule (no bound exists on unseen documents, so the whole list is
// scanned) and the current-score lookup.  Only a combined query reads the
// per-term IDFs, so only a combined query computes them.
func (b *base) plan(ctx *queryCtx) (rankedQuery, error) {
	if err := b.termStreams(ctx); err != nil {
		return rankedQuery{}, err
	}
	if ctx.query.WithTermScores {
		for i := range ctx.query.Terms {
			ctx.idfs = append(ctx.idfs, ctx.snap.queryIDF(&ctx.query, i))
		}
	}
	return rankedQuery{need: ctx.need(), resolve: resolveCurrent}, nil
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
