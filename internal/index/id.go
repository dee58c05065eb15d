package index

import (
	"fmt"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/text"
	"svrdb/internal/topk"
)

// IDMethod implements the ID method of §4.2.1 and, when built with term
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
// ID-ordered short list (Appendix A applies the same mechanism to every
// method); score updates never touch it.
type IDMethod struct {
	*base
	withTermScores bool
	aux            *keyedList
	// knownTokens caches the distinct terms of documents inserted after the
	// bulk build so that deletions can purge their auxiliary postings even if
	// the document source no longer has the row.
	knownTokens map[DocID][]string
}

// NewID creates an ID-method index.
func NewID(cfg Config) (*IDMethod, error) { return newIDMethod(cfg, false) }

// NewIDTermScore creates an ID-TermScore index (the ID method with a
// normalized term weight stored in every posting).
func NewIDTermScore(cfg Config) (*IDMethod, error) { return newIDMethod(cfg, true) }

func newIDMethod(cfg Config, withTermScores bool) (*IDMethod, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	aux, err := newKeyedList(b.cfg.Pool)
	if err != nil {
		return nil, err
	}
	m := &IDMethod{base: b, withTermScores: withTermScores, aux: aux, knownTokens: map[DocID][]string{}}
	m.initSnapshots()
	return m, nil
}

// initSnapshots wires the auxiliary list into the epoch machinery and
// publishes the initial (empty) snapshot; also used after Restore.
func (m *IDMethod) initSnapshots() {
	m.aux.enableCOW(m.retirePage)
	m.fillExtra = func(s *snap) { s.lists = m.aux.snapshotView() }
	m.publish()
}

// Name implements Method.
func (m *IDMethod) Name() string {
	if m.withTermScores {
		return "ID-TermScore"
	}
	return "ID"
}

// Build implements Method.
func (m *IDMethod) Build(src DocSource, scores ScoreFunc) error {
	m.dictChanged()
	m.src = src
	bc, err := accumulate(src, scores, m.dict)
	if err != nil {
		return err
	}
	if err := m.populateScoreTable(bc); err != nil {
		return err
	}
	// Published snapshots share the ref map by pointer, so accumulate into a
	// fresh map and swap it in wholesale.
	refs := make(map[string]blob.Ref, len(bc.termDocs))
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
		ref, err := m.store.Put(data)
		if err != nil {
			return err
		}
		refs[term] = ref
		m.longBytes += uint64(len(data))
	}
	m.longRefs = refs
	m.publish()
	return nil
}

// ApplyUpdates implements Method: the batch replays through the ordinary
// maintenance paths with the Score table and the auxiliary list staged, so
// its tree writes group by leaf.
func (m *IDMethod) ApplyUpdates(batch []Update) error {
	return m.runBatch(m, batch, m.score, m.aux)
}

// UpdateScore implements Method: the only work is one Score-table write.
func (m *IDMethod) UpdateScore(doc DocID, newScore float64) error {
	defer m.publish()
	m.counters.scoreUpdates.Add(1)
	_, _, ok, err := m.score.Get(doc)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDocument, doc)
	}
	return m.score.Set(doc, newScore)
}

// InsertDocument implements Method.
func (m *IDMethod) InsertDocument(doc DocID, tokens []string, score float64) error {
	m.dictChanged()
	defer m.publish()
	if err := m.score.Set(doc, score); err != nil {
		return err
	}
	weights := docTermWeights(tokens)
	distinct := make([]string, 0, len(weights))
	for _, tw := range weights {
		if err := m.aux.Put(tw.term, 0, doc, postings.OpAdd, tw.w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
		distinct = append(distinct, tw.term)
	}
	m.dict.AddDocumentTerms(distinct)
	m.knownTokens[doc] = distinct
	m.numDocs.Add(1)
	return nil
}

// DeleteDocument implements Method.
func (m *IDMethod) DeleteDocument(doc DocID) error {
	m.dictChanged()
	defer m.publish()
	if err := m.score.MarkDeleted(doc); err != nil {
		return err
	}
	for _, term := range m.docTermsForMaintenance(doc) {
		if err := m.aux.DeleteAllForDoc(term, doc); err != nil {
			return err
		}
	}
	delete(m.knownTokens, doc)
	m.numDocs.Add(-1)
	return nil
}

// UpdateContent implements Method.
func (m *IDMethod) UpdateContent(doc DocID, oldTokens, newTokens []string) error {
	m.dictChanged()
	defer m.publish()
	added, removed := diffTerms(oldTokens, newTokens)
	newWeights := text.TermFrequencies(newTokens)
	for _, term := range added {
		w := text.NormalizedTF(newWeights[term], len(newTokens))
		if err := m.aux.Put(term, 0, doc, postings.OpAdd, w); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	for _, term := range removed {
		if err := m.aux.Put(term, 0, doc, postings.OpRem, 0); err != nil {
			return err
		}
		m.counters.shortListPostingsWritten.Add(1)
	}
	m.dict.AddDocumentTerms(added)
	m.dict.RemoveDocumentTerms(removed)
	return nil
}

// docTermsForMaintenance returns the distinct terms of a document for purge
// operations, preferring the document source and falling back to the cache
// of incrementally inserted documents.
func (m *IDMethod) docTermsForMaintenance(doc DocID) []string {
	if m.src != nil {
		if tokens, err := m.src.Tokens(doc); err == nil {
			return distinctTerms(tokens)
		}
	}
	return m.knownTokens[doc]
}

// makeResolve builds the candidate resolver: the current-score lookup, plus
// the per-term TFIDF contributions when the query asks for combined ranking.
func (m *IDMethod) makeResolve(ctx *queryCtx, q Query, idfs []float64) func(g postings.Group) (float64, bool, error) {
	resolve := currentScoreResolver(ctx)
	if !q.WithTermScores {
		return resolve
	}
	return func(g postings.Group) (float64, bool, error) {
		svr, include, err := resolve(g)
		if err != nil || !include {
			return 0, false, err
		}
		combined := svr
		for i, present := range g.Present {
			if present {
				combined += text.TFIDF(g.Entries[i].TermScore, idfs[i])
			}
		}
		return combined, true, nil
	}
}

// TopK implements Method.
func (m *IDMethod) TopK(q Query) (*QueryResult, error) {
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

	ctx := newQueryCtx(s)
	defer ctx.release()

	// Multi-term conjunctive queries with no auxiliary postings intersect
	// via leapfrog seeks instead of scanning every list end to end.
	if !q.Disjunctive && len(q.Terms) > 1 && s.lists.Len() == 0 {
		return m.leapfrogTopK(s, ctx, q)
	}

	for i, term := range q.Terms {
		long, err := m.longIterator(s, term)
		if err != nil {
			return nil, err
		}
		short, err := s.lists.Iterator(term)
		if err != nil {
			return nil, err
		}
		ctx.streams = append(ctx.streams, combinedStream(short, long))
		ctx.idfs = append(ctx.idfs, s.queryIDF(&q, i))
	}

	return m.runRanked(rankedQuery{
		streams:     ctx.streams,
		k:           q.K,
		conjunctive: !q.Disjunctive,
		maxPossible: neverStop,
		resolve:     m.makeResolve(ctx, q, ctx.idfs),
	})
}

// docSeeker is a posting stream that can reposition forward to the first
// entry at or past a document ID without decoding the skipped range.
type docSeeker interface {
	postings.BatchIterator
	SeekDoc(doc DocID) error
}

// leapfrogTopK intersects the query terms' long lists with the classic
// leapfrog join: every stream repeatedly seeks to the maximum head document,
// and only documents all streams agree on are resolved.  SeekDoc proves
// via skip headers that a super-block holds no document >= the target, so
// sparse intersections skip most of every list's pages.
func (m *IDMethod) leapfrogTopK(s *snap, ctx *queryCtx, q Query) (*QueryResult, error) {
	seekers := make([]docSeeker, 0, len(q.Terms))
	idfs := make([]float64, 0, len(q.Terms))
	for i, term := range q.Terms {
		ref, ok := s.longRefs[term]
		if !ok {
			// A term with no long list (and the short lists are empty, or we
			// would not be here) makes the conjunction empty.
			m.counters.queries.Add(1)
			return &QueryResult{Stopped: true}, nil
		}
		r := m.store.NewReader(ref)
		var ds docSeeker
		if m.withTermScores {
			st, err := postings.NewStreamIDTermList(r)
			if err != nil {
				return nil, err
			}
			ds = st
		} else {
			st, err := postings.NewStreamIDList(r)
			if err != nil {
				return nil, err
			}
			ds = st
		}
		seekers = append(seekers, ds)
		idfs = append(idfs, s.queryIDF(&q, i))
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
	heap := topk.New(q.K)
	res := &QueryResult{}
	resolve := m.makeResolve(ctx, q, idfs)
	group := postings.Group{
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
		score, include, err := resolve(group)
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
	m.counters.postingsScanned.Add(uint64(scanned))
	return res, nil
}

func (m *IDMethod) longIterator(s *snap, term string) (postings.BatchIterator, error) {
	ref, ok := s.longRefs[term]
	if !ok {
		return postings.NewSliceIterator(nil), nil
	}
	r := m.store.NewReader(ref)
	if m.withTermScores {
		return postings.NewStreamIDTermList(r)
	}
	return postings.NewStreamIDList(r)
}

// Stats implements Method.
func (m *IDMethod) Stats() Stats {
	s, guard, err := m.acquire()
	if err != nil {
		return Stats{Method: m.Name()}
	}
	defer guard.Leave()
	st := Stats{
		Method:           m.Name(),
		LongListBytes:    s.longBytes,
		LongListRawBytes: s.longRawBytes,
		ShortListEntries: s.lists.Len(),
		TablePatches:     s.score.Patches() + s.lists.Patches(),
	}
	m.counters.fill(&st)
	m.fillPoolStats(&st)
	m.fillEpochStats(&st)
	return st
}

// diffTerms computes the added and removed distinct terms between two token
// streams (Appendix A.1's Tnew \ Told and Told \ Tnew).
func diffTerms(oldTokens, newTokens []string) (added, removed []string) {
	oldSet := map[string]bool{}
	for _, t := range oldTokens {
		oldSet[t] = true
	}
	newSet := map[string]bool{}
	for _, t := range newTokens {
		newSet[t] = true
	}
	for t := range newSet {
		if !oldSet[t] {
			added = append(added, t)
		}
	}
	for t := range oldSet {
		if !newSet[t] {
			removed = append(removed, t)
		}
	}
	return added, removed
}
