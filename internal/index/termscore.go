package index

import (
	"fmt"
	"math"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
	"svrdb/internal/topk"
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
// with the highest term weights, stored in ID order — and returns its blob
// and the smallest weight in it.
func (m *thresholdMethod) buildFancyList(bc *builtCorpus, term string) (blob.Ref, float32, error) {
	posts, minW := bc.fancy(term, m.cfg.FancyListSize)
	fb := postings.NewBlockIDTermListBuilder()
	for _, dw := range posts {
		if err := fb.Add(dw.doc, dw.w); err != nil {
			return blob.Ref{}, 0, fmt.Errorf("index: build fancy list for %q: %w", term, err)
		}
	}
	data := fb.Bytes()
	ref, err := m.store.Put(data)
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

	heap := topk.New(q.K)
	res := &QueryResult{}
	// Fancy lists and chunked lists both yield candidates in ascending
	// document order (per chunk), so their score resolution runs through
	// the context's leaf-locality probes (phase 1 is done with the Score
	// probe before phase 2's resolver takes it over); checkStop's remainList
	// pruning reads documents in arbitrary order and descends per lookup.
	scores := &ctx.score

	// Phase 1 (Algorithm 3 lines 8-9): merge the fancy lists.  Documents
	// present in every fancy list have exact combined scores and seed the
	// heap; documents present in only some go to the remainList with the
	// term weights learned so far.
	type remainInfo struct {
		known map[int]float64 // term index -> exact tf-idf contribution
	}
	remain := map[DocID]*remainInfo{}

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
	fancyMerger := postings.NewGroupMerger(ctx.streams...)
	defer fancyMerger.Close()
	for {
		g, ok, err := fancyMerger.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.PostingsScanned += g.Count
		if g.ContainsAll() {
			svr, live, err := rowScore(scores.Get(g.Doc))
			if err != nil {
				return nil, err
			}
			if live {
				heap.Add(int64(g.Doc), combinedScore(svr, g, idfs))
			}
			continue
		}
		info := &remainInfo{known: map[int]float64{}}
		for i, present := range g.Present {
			if present {
				info.known[i] = text.TFIDF(g.Entries[i].TermScore, idfs[i])
			}
		}
		remain[g.Doc] = info
	}

	// Phase 2 (lines 10-34): scan the chunked lists top chunk first.  The
	// fancy merger copied its stream references into its own heads, so the
	// context's stream slice can be reused for this phase.
	if err := m.listStreams(s, ctx, q.Terms); err != nil {
		return nil, err
	}
	merger := postings.NewGroupMerger(ctx.streams...)
	defer merger.Close()
	lastCID := int32(math.MinInt32)
	haveCID := false

	checkStop := func(cidJustFinished int32) (bool, error) {
		min, full := heap.MinScore()
		if !full {
			return false, nil
		}
		// The SVR score of any document not yet reached is below the upper
		// bound of the chunk one above the chunks still to be scanned.
		svrBound := s.chunks.UpperBound(cidJustFinished)
		// Prune remainList entries that can no longer win.
		for doc, info := range remain {
			svr, live, err := rowScore(scores.Descend(doc))
			if err != nil {
				return false, err
			}
			if !live {
				delete(remain, doc)
				continue
			}
			bound := svr
			for i := range q.Terms {
				if known, ok := info.known[i]; ok {
					bound += known
				} else {
					bound += epsilons[i]
				}
			}
			if bound <= min {
				delete(remain, doc)
			}
		}
		if len(remain) > 0 {
			return false, nil
		}
		return svrBound+epsilonSum <= min, nil
	}

	for {
		g, ok, err := merger.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.PostingsScanned += g.Count
		cid := int32(g.SortKey)
		if haveCID && cid < lastCID {
			stop, err := checkStop(lastCID)
			if err != nil {
				return nil, err
			}
			if stop {
				res.Stopped = true
				break
			}
		}
		lastCID, haveCID = cid, true

		// The document is now being processed through its regular postings,
		// so it no longer needs to be remembered separately (line 12).
		delete(remain, g.Doc)

		matches := g.ContainsAll() || (q.Disjunctive && g.Count >= 1)
		if !matches {
			continue
		}
		svr, include, err := m.order.resolve(ctx, g)
		if err != nil {
			return nil, err
		}
		if include {
			heap.Add(int64(g.Doc), combinedScore(svr, g, idfs))
		}
	}

	res.Results = heap.Results()
	res.ScoreLookups = ctx.score.lookups
	m.counters.postingsScanned.Add(uint64(res.PostingsScanned))
	return res, nil
}
