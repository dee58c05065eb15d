package index

import (
	"fmt"
	"slices"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
)

// This file is the term-score side of the threshold family (§4.3.3): the
// Chunk order extended to rank by a combination of the SVR score and
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
// produce a better combined score.  The fancy lists are read-only between
// merges, so updates are exactly Algorithm 1.

// buildFancyList writes a term's fancy list — the FancyListSize postings
// with the highest term weights, stored in ID order — through w, a
// LayoutIDTerm writer, and the packer that holds the term's long list, and
// returns its blob and the smallest weight in it.
func (b *base) buildFancyList(packer *blob.Packer, w *postings.Writer, bc *builtCorpus, term string) (blob.Ref, float32, error) {
	posts, minW := bc.fancy(term, b.cfg.FancyListSize)
	w.Reset()
	for _, dw := range posts {
		if err := w.Add(postings.Entry{Doc: dw.doc, TermScore: dw.w}); err != nil {
			return blob.Ref{}, 0, fmt.Errorf("index: build fancy list for %q: %w", term, err)
		}
	}
	data := w.Bytes()
	ref, err := packer.Put(data)
	if err != nil {
		return blob.Ref{}, 0, err
	}
	b.fancyBytes += uint64(len(data))
	b.longRawBytes += w.RawBytes()
	return ref, minW, nil
}

// planTermScores is Algorithm 3, the combined SVR + term-score query, as
// two scans of runRanked.  It runs the first itself: a need = 1 merge of
// the fancy lists with no stopping rule, whose resolver (seedFancy) seeds
// the heap and the remainList (lines 8-9).  It returns the second: the
// chunked lists scanned top chunk first (lines 10-34), stopped by
// stopTermScores and resolved by resolveTermScores.  It runs on the chunk
// order: the stopping rule reads the scan position as a chunk ID.
// Fancy lists and chunked lists both yield candidates in ascending document
// order (per chunk), so their score resolution runs through the context's
// leaf-locality probes (the first scan is done with the Score probe before
// the second's resolver takes it over); the stopping rule prunes the
// remainList in ascending order too, through the context's second
// Score-table cursor, leaving the first where the scan left it.
func (m *thresholdMethod) planTermScores(ctx *queryCtx) (rankedQuery, error) {
	s, q := ctx.snap, &ctx.query
	for i, term := range q.Terms {
		idf := s.queryIDF(q, i)
		ctx.idfs = append(ctx.idfs, idf)
		// ε_i · idf_i, the per-term cap for unseen docs.  Under a global idf
		// override the cap stays sound: fancyMinW still bounds this shard's
		// unseen term weights, and idf is the same factor applied everywhere.
		epsilon := text.TFIDF(s.fancyMinW[term], idf)
		ctx.epsilons = append(ctx.epsilons, epsilon)
		ctx.epsilonSum += epsilon
	}
	ctx.remain.reset(len(q.Terms))
	for _, term := range q.Terms {
		it, err := m.openList(s.fancyRefs, term, nil, postings.LayoutIDTerm)
		if err != nil {
			return rankedQuery{}, err
		}
		ctx.streams = append(ctx.streams, it)
	}
	if err := ctx.runRanked(rankedQuery{need: 1, resolve: seedFancy}); err != nil {
		return rankedQuery{}, err
	}
	// The fancy merge is closed, so the context's stream slice is reused.
	if err := m.termStreams(ctx); err != nil {
		return rankedQuery{}, err
	}
	return rankedQuery{need: 1, stop: stopTermScores, resolve: resolveTermScores}, nil
}

// seedFancy resolves a fancy-list position (Algorithm 3 lines 8-9): a
// document present in every fancy list has an exact combined score and is
// offered to the heap; one present in only some goes to the remainList with
// the term weights learned so far, and ε_i·idf_i for the others.
func seedFancy(ctx *queryCtx, g *postings.Group) (float64, bool, error) {
	if g.ContainsAll() {
		return resolveCurrent(ctx, g)
	}
	row := ctx.remain.add(g.Doc)
	for i, present := range g.Present {
		if present {
			row[i] = text.TFIDF(g.Entries[i].TermScore, ctx.idfs[i])
		} else {
			row[i] = ctx.epsilons[i]
		}
	}
	return 0, false, nil
}

// resolveTermScores resolves a chunked-list position: the document is now
// being processed through its regular postings, so it no longer needs to be
// remembered separately (line 12); a conjunction drops a position some
// term does not hold, since the scan returns every position; the rest is
// the Chunk orders' resolver, which returns the combined score it cut the
// candidate at.
func resolveTermScores(ctx *queryCtx, g *postings.Group) (float64, bool, error) {
	ctx.remain.remove(g.Doc)
	if !ctx.query.Disjunctive && !g.ContainsAll() {
		return 0, false, nil
	}
	return resolveChunk(ctx, g)
}

// stopTermScores is Algorithm 3's stopping rule, tested as the scan leaves
// a chunk: the scan returns every position (need = 1), so the merge asks
// at every position and the rule sees each chunk change.  With the heap
// full it prunes the remainList entries that can no longer win, and stops
// once none is left and no document not yet reached can win either: such a
// document is in no fancy list, so its combined score is at most the key
// ceiling of the chunk the scan enters (snap.ceiling) plus ε, the sum of the
// per-term caps, and it cannot win once that is below the heap's minimum.
// An error of the prune ends the scan through ctx.err.
func stopTermScores(ctx *queryCtx, sortKey float64) bool {
	cid, finished := int32(sortKey), ctx.lastCID
	ctx.lastCID = cid
	if cid >= finished {
		return false
	}
	min, full := ctx.heap.MinScore()
	if !full {
		return false
	}
	ctx.err = ctx.remain.prune(func(doc DocID, row []float64) (bool, error) {
		svr, live, err := rowScore(ctx.getScoreAside(doc))
		if err != nil || !live {
			return false, err
		}
		bound := svr
		for _, w := range row {
			bound += w
		}
		return bound > min, nil
	})
	return ctx.err != nil || ctx.remain.live == 0 && ctx.snap.ceiling(sortKey)+ctx.epsilonSum < min
}

// remainList is Algorithm 3's remainList: the documents a fancy list named
// whose regular postings have not been reached, each with a row of
// len(terms) weights — the exact tf-idf contribution of a term whose fancy
// list held the document, ε_i·idf_i of one whose did not — so that a
// document's score bound is its SVR score plus its row.  It is flat and
// lives in the pooled query context: no per-document allocation, and no
// allocation at all once its slices have grown.  Documents are added in
// ascending order (the fancy merge yields them so: every fancy-list
// position has the same sort key), which lets remove bisect.
type remainList struct {
	docs  []DocID
	rows  []float64 // row j is rows[j*width : (j+1)*width]
	gone  []bool    // removed since the last prune
	width int
	live  int
}

// reset empties the list for a query of width terms.
func (r *remainList) reset(width int) {
	r.docs, r.rows, r.gone = r.docs[:0], r.rows[:0], r.gone[:0]
	r.width, r.live = width, 0
}

// add appends doc, which must sort after every document added so far, and
// returns its row for the caller to fill.
func (r *remainList) add(doc DocID) []float64 {
	r.docs = append(r.docs, doc)
	r.gone = append(r.gone, false)
	r.rows = slices.Grow(r.rows, r.width)[:len(r.rows)+r.width]
	r.live++
	return r.rows[len(r.rows)-r.width:]
}

// remove drops doc if it is listed.
func (r *remainList) remove(doc DocID) {
	if r.live == 0 {
		return
	}
	if j, ok := slices.BinarySearch(r.docs, doc); ok && !r.gone[j] {
		r.gone[j] = true
		r.live--
	}
}

// prune keeps the listed documents for which keep reports true, visiting
// them in ascending order, and compacts the list.  An error ends the query,
// so it leaves the list as it stands.
func (r *remainList) prune(keep func(doc DocID, row []float64) (bool, error)) error {
	w, n := r.width, 0
	for j, doc := range r.docs {
		if r.gone[j] {
			continue
		}
		row := r.rows[j*w : (j+1)*w]
		k, err := keep(doc, row)
		if err != nil {
			return err
		}
		if k {
			r.docs[n], r.gone[n] = doc, false
			copy(r.rows[n*w:], row)
			n++
		}
	}
	r.docs, r.rows, r.gone, r.live = r.docs[:n], r.rows[:n*w], r.gone[:n], n
	return nil
}
