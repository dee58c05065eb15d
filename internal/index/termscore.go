package index

import (
	"fmt"
	"math"
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
// with the highest term weights, stored in ID order — through the packer
// that holds the term's long list, and returns its blob and the smallest
// weight in it.
func (m *thresholdMethod) buildFancyList(packer *blob.Packer, bc *builtCorpus, term string) (blob.Ref, float32, error) {
	posts, minW := bc.fancy(term, m.cfg.FancyListSize)
	fb := postings.NewBlockIDTermListBuilder()
	for _, dw := range posts {
		if err := fb.Add(dw.doc, dw.w); err != nil {
			return blob.Ref{}, 0, fmt.Errorf("index: build fancy list for %q: %w", term, err)
		}
	}
	data := fb.Bytes()
	ref, err := packer.Put(data)
	if err != nil {
		return blob.Ref{}, 0, err
	}
	m.fancyBytes += uint64(len(data))
	m.longRawBytes += uint64(fb.Len()) * rawBytesIDTermPosting
	return ref, minW, nil
}

// topKTermScores is Algorithm 3, the combined SVR + term-score query.  It
// runs on the chunk order: the stopping rule reads the scan position as a
// chunk ID.
func (m *thresholdMethod) topKTermScores(s *snap, ctx *queryCtx, q Query) (*QueryResult, error) {
	m.counters.queries.Add(1)
	for i, term := range q.Terms {
		idf := s.queryIDF(&q, i)
		ctx.idfs = append(ctx.idfs, idf)
		// ε_i · idf_i, the per-term cap for unseen docs.  Under a global idf
		// override the cap stays sound: fancyMinW still bounds this shard's
		// unseen term weights, and idf is the same factor applied everywhere.
		ctx.epsilons = append(ctx.epsilons, text.TFIDF(s.fancyMinW[term], idf))
	}
	idfs, epsilons := ctx.idfs, ctx.epsilons
	epsilonSum := 0.0
	for _, e := range epsilons {
		epsilonSum += e
	}

	heap := &ctx.heap
	res := &QueryResult{}
	// Fancy lists and chunked lists both yield candidates in ascending
	// document order (per chunk), so their score resolution runs through
	// the context's leaf-locality probes (phase 1 is done with the Score
	// probe before phase 2's resolver takes it over); checkStop prunes the
	// remainList in ascending order too, through the context's second
	// Score-table cursor, leaving the first where phase 2 left it.
	scores := &ctx.score

	// Phase 1 (Algorithm 3 lines 8-9): merge the fancy lists.  Documents
	// present in every fancy list have exact combined scores and seed the
	// heap; documents present in only some go to the remainList with the
	// term weights learned so far.
	remain := &ctx.remain
	remain.reset(len(q.Terms))

	for _, term := range q.Terms {
		var it postings.BatchIterator
		if ref, ok := s.fancyRefs[term]; ok {
			var err error
			if it, err = postings.NewStreamIDTermList(m.store.NewReader(ref)); err != nil {
				return nil, err
			}
		} else {
			it = postings.NewSliceIterator(nil)
		}
		ctx.streams = append(ctx.streams, it)
	}
	fancy := postings.NewMerge(1, ctx.streams...)
	defer fancy.Close()
	for {
		g, ok, err := fancy.Next(nil)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if g.ContainsAll() {
			svr, live, err := rowScore(scores.Get(g.Doc))
			if err != nil {
				return nil, err
			}
			if live {
				heap.Add(int64(g.Doc), ctx.offer(g, svr))
			}
			continue
		}
		row := remain.add(g.Doc)
		for i, present := range g.Present {
			if present {
				row[i] = text.TFIDF(g.Entries[i].TermScore, idfs[i])
			} else {
				row[i] = epsilons[i]
			}
		}
	}

	// Phase 2 (lines 10-34): scan the chunked lists top chunk first.  The
	// fancy merge copied its stream references into its own heads, so the
	// context's stream slice can be reused for this phase.
	if err := m.listStreams(s, ctx, q.Terms); err != nil {
		return nil, err
	}

	// The stopping rule is tested as the scan leaves a chunk.  The merge
	// returns every position (need = 1), so it asks stop at every position
	// and stop sees each chunk change; an error ends the merge and is
	// returned from the loop below.
	lastCID, haveCID := int32(math.MinInt32), false
	var stopErr error
	stop := func(sortKey float64) bool {
		cid, finished := int32(sortKey), lastCID
		leaving := haveCID && cid < finished
		lastCID, haveCID = cid, true
		if !leaving {
			return false
		}
		min, full := heap.MinScore()
		if !full {
			return false
		}
		// Prune remainList entries that can no longer win.
		stopErr = remain.prune(func(doc DocID, row []float64) (bool, error) {
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
		// The SVR score of any document not yet reached is below the upper
		// bound of the chunk one above the chunks still to be scanned.
		return stopErr != nil || remain.live == 0 && s.chunks.UpperBound(finished)+epsilonSum <= min
	}
	merge := postings.NewMerge(1, ctx.streams...)
	defer merge.Close()
	for {
		g, ok, err := merge.Next(stop)
		if err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}

		// The document is now being processed through its regular postings,
		// so it no longer needs to be remembered separately (line 12).
		remain.remove(g.Doc)

		if !q.Disjunctive && !g.ContainsAll() {
			continue
		}
		// The resolver returns the combined score it cut the candidate at.
		score, include, err := m.order.resolve(ctx, g)
		if err != nil {
			return nil, err
		}
		if include {
			heap.Add(int64(g.Doc), score)
		}
	}

	res.Results = heap.Results()
	res.PostingsScanned = fancy.Scanned + merge.Scanned
	res.ScoreLookups = ctx.score.lookups
	res.Stopped = merge.Stopped
	m.counters.postingsScanned.Add(uint64(res.PostingsScanned))
	return res, nil
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
