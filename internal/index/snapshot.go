package index

import (
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/epoch"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
)

// This file implements the epoch/snapshot read protocol that lets queries
// run without blocking behind maintenance.
//
// Every method keeps an atomically published *snap: a frozen image of all
// the state a query touches — B+-tree roots of the Score table and the
// method's lists, the long-list blob refs, the chunker / score directory,
// and a frozen document-frequency vector for IDF.  Readers enter the
// current epoch, load the snapshot, and evaluate entirely against it; the
// serialized writer mutates copy-on-write trees in private (fresh) pages
// and publishes by storing a new snap and advancing the epoch.  Pages the
// writer superseded are retired to the epoch manager and recycled only
// after every reader that could still reach them has left.
//
// Publication ordering: the writer's page writes happen-before the atomic
// Store of the snap (release), and a reader's Load (acquire) happens-before
// its page reads — published pages are never written in place, so reads are
// race-free without any reader-side lock.

// snap is one published snapshot.  All fields are immutable after
// publication: maps and slices are either freshly built per generation and
// never mutated again (longRefs, fancyRefs, scoreDir, df) or replaced
// wholesale by the structures they come from.
type snap struct {
	// score is the frozen Score table.
	score docView
	// lists is the method's single mutable keyed list: the ID family's
	// auxiliary list, the Score method's clustered lists, or the
	// threshold/chunk families' short lists.
	lists keyedView
	// table is the ListScore/ListChunk table (threshold and chunk families).
	table docView

	longRefs     map[string]blob.Ref
	longBytes    uint64
	longRawBytes uint64
	numDocs      int64
	// dict resolves terms to IDs; term→ID assignments are stable, so the
	// live dictionary is shared and df freezes the per-ID frequencies.
	dict *text.Dictionary
	df   []int64

	// scoreDir is the Score-Threshold compressed-list score directory.
	scoreDir []float64
	// chunks is the Chunk family's boundary vector (immutable once built).
	chunks *chunker

	// Fancy-list state (Chunk-TermScore only).
	fancyRefs  map[string]blob.Ref
	fancyMinW  map[string]float32
	fancyBytes uint64
}

// publish freezes the method's current state into a new snapshot, stores it
// for readers and advances the epoch so that pages retired while building
// it become reclaimable once the previous snapshot's readers drain.  Every
// mutating entry point publishes on the way out; ApplyUpdates suppresses
// the per-update publishes and issues one per batch.
func (b *base) publish() {
	if b.suppress {
		return
	}
	s := &snap{}
	b.fill(s)
	b.published.Store(s)
	b.epochs.Advance()
}

// fill captures the live state; fields the kind does not use are zero on
// both sides.  The document-frequency vector is copied only when the
// dictionary changed since the last publication, so score-only batches skip
// the O(vocabulary) copy.
func (b *base) fill(s *snap) {
	s.score = b.score.snapshotView()
	s.lists = b.lists.snapshotView()
	if b.table != nil {
		s.table = b.table.snapshotView()
	}
	s.scoreDir = b.scoreDir
	s.chunks = b.chunks
	s.fancyRefs = b.fancyRefs
	s.fancyMinW = b.fancyMinW
	s.fancyBytes = b.fancyBytes
	s.longRefs = b.longRefs
	s.longBytes = b.longBytes
	s.longRawBytes = b.longRawBytes
	s.numDocs = b.numDocs.Load()
	s.dict = b.dict
	if gen := b.dict.Gen(); b.pubDF == nil || b.pubDict != b.dict || gen != b.pubGen {
		b.pubDF = b.dict.DocFreqSnapshot()
		b.pubDict = b.dict
		b.pubGen = gen
	}
	s.df = b.pubDF
}

// acquire pins the current epoch and loads the published snapshot.  The
// caller must Leave the guard when it no longer holds references into the
// snapshot.  After Drain, acquire fails with ErrClosed.
func (b *base) acquire() (*snap, epoch.Guard, error) {
	g := b.epochs.Enter()
	if !g.Ok() {
		return nil, g, ErrClosed
	}
	return b.published.Load(), g, nil
}

// Drain implements Method: it fences out new readers, waits for in-flight
// ones to finish and recycles every retired page.  The method must not be
// used afterwards.
func (b *base) Drain() error { return b.epochs.Drain() }

// retirePage hands one superseded page to the epoch manager; it is the
// retire hook wired into every COW tree.
func (b *base) retirePage(id pagefile.PageID) { b.epochs.Retire(id) }

// retireBlobRefs retires every page of the given long-list blobs (used by
// the offline merge, which supersedes a whole generation of lists at once).
func (b *base) retireBlobRefs(refs map[string]blob.Ref) {
	pageSize := b.cfg.Pool.PageSize()
	for _, ref := range refs {
		for i := uint64(0); i < ref.PageSpan(pageSize); i++ {
			b.epochs.Retire(ref.FirstPage + pagefile.PageID(i))
		}
	}
}

// docFreq resolves a term's frozen document frequency.  Terms interned
// after the snapshot was taken have IDs past the end of the frozen vector
// and report 0, exactly as if they were unknown at capture time.
func (s *snap) docFreq(term string) int64 {
	id, ok := s.dict.Lookup(term)
	if !ok || int(id) >= len(s.df) {
		return 0
	}
	return s.df[id]
}

// idf returns the term's inverse document frequency under the snapshot's
// collection statistics.
func (s *snap) idf(term string) float64 {
	return text.IDF(text.CollectionStats{NumDocs: s.numDocs}, s.docFreq(term))
}

// queryIDF returns the idf of q.Terms[i]: the snapshot's own statistics by
// default, or the cluster-wide override when the query carries GlobalStats.
// i indexes the query's term list, which Validate guarantees is aligned
// with Global.DF.
func (s *snap) queryIDF(q *Query, i int) float64 {
	if q.Global != nil {
		return text.IDF(text.CollectionStats{NumDocs: q.Global.NumDocs}, q.Global.DF[i])
	}
	return s.idf(q.Terms[i])
}

// ScoreOf implements Method: one lock-free, epoch-pinned read of the
// published Score table.
func (b *base) ScoreOf(doc DocID) (float64, bool, error) {
	s, g, err := b.acquire()
	if err != nil {
		return 0, false, err
	}
	defer g.Leave()
	return rowScore(s.score.Get(doc))
}

// TermStats implements Method for every method via the embedded base: it
// reports the published snapshot's document count and per-term document
// frequencies, the inputs a cluster sums into GlobalStats.
func (b *base) TermStats(terms []string) (int64, []int64, error) {
	s, g, err := b.acquire()
	if err != nil {
		return 0, nil, err
	}
	defer g.Leave()
	df := make([]int64, len(terms))
	for i, term := range terms {
		df[i] = s.docFreq(term)
	}
	return s.numDocs, df, nil
}
