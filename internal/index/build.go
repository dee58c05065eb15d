package index

import (
	"fmt"
	"sort"

	"svrdb/internal/postings"
	"svrdb/internal/storage/btree"
	"svrdb/internal/text"
)

// builtCorpus is the in-memory image of the collection used during bulk
// builds: per-term postings in document order plus the initial score of
// every document.  The paper's experiments bulk-load the long inverted
// lists once and then measure incremental updates against them; this struct
// is the staging area for that bulk load.
type builtCorpus struct {
	// termDocs[term] lists (doc, normalized TF) pairs sorted by doc ID.
	termDocs map[string][]docWeight
	// docScores holds the build-time SVR score of every document.
	docScores map[DocID]float64
	// docs lists every document ID in ascending order.
	docs []DocID
	// docLens holds token counts (for diagnostics).
	docLens map[DocID]int

	// scoreRank caches each document's position in the global
	// (score desc, doc asc) order, so the per-term sorts of score-ordered
	// builds compare small integers instead of probing the score map twice
	// per comparison.
	scoreRank map[DocID]int32
	// cidChunker/cidOf cache ChunkOf per document for the chunker of the
	// current build.
	cidChunker *chunker
	cidOf      map[DocID]int32
}

type docWeight struct {
	doc DocID
	w   float32
}

// accumulate tokenizes every document and groups postings per term.
// Postings collect in slices addressed through a term-interning map, so the
// hot loop pays one map read per (document, term) pair instead of a map
// write per posting.
func accumulate(src DocSource, scores ScoreFunc, dict *text.Dictionary) (*builtCorpus, error) {
	bc := &builtCorpus{
		termDocs:  map[string][]docWeight{},
		docScores: map[DocID]float64{},
		docLens:   map[DocID]int{},
	}
	termIdx := map[string]int32{}
	var termLists [][]docWeight
	var termNames []string
	tf := map[string]int{} // per-document term frequencies, reused
	var distinct []string  // per-document distinct terms, reused
	err := src.ForEach(func(doc DocID, tokens []string) error {
		if _, dup := bc.docLens[doc]; dup {
			return fmt.Errorf("index: duplicate document ID %d in source", doc)
		}
		bc.docLens[doc] = len(tokens)
		bc.docs = append(bc.docs, doc)
		clear(tf)
		for _, t := range tokens {
			tf[t]++
		}
		distinct = distinct[:0]
		for term, n := range tf {
			w := text.NormalizedTF(n, len(tokens))
			i, ok := termIdx[term]
			if !ok {
				i = int32(len(termLists))
				termIdx[term] = i
				termLists = append(termLists, nil)
				termNames = append(termNames, term)
			}
			termLists[i] = append(termLists[i], docWeight{doc: doc, w: w})
			distinct = append(distinct, term)
		}
		if dict != nil {
			dict.AddDocumentTerms(distinct)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Scores are read after the source's scan, not inside it: the engine's
	// ScoreFunc evaluates score components that may read the very table the
	// source is scanning, and re-entering a table from inside its own scan
	// would nest read locks (a deadlock once a writer queues between them).
	for _, doc := range bc.docs {
		score := scores(doc)
		if score < 0 {
			return nil, fmt.Errorf("index: document %d has negative score %g (scores must be non-negative)", doc, score)
		}
		bc.docScores[doc] = score
	}
	for i, name := range termNames {
		bc.termDocs[name] = termLists[i]
	}
	if !sort.SliceIsSorted(bc.docs, func(i, j int) bool { return bc.docs[i] < bc.docs[j] }) {
		sort.Slice(bc.docs, func(i, j int) bool { return bc.docs[i] < bc.docs[j] })
	}
	for term := range bc.termDocs {
		ds := bc.termDocs[term]
		// Sources almost always visit documents in ascending ID order, in
		// which case the per-term postings inherit it; only sort otherwise.
		if !sort.SliceIsSorted(ds, func(i, j int) bool { return ds[i].doc < ds[j].doc }) {
			sort.Slice(ds, func(i, j int) bool { return ds[i].doc < ds[j].doc })
		}
	}
	return bc, nil
}

// terms returns the distinct terms in sorted order (deterministic builds).
func (bc *builtCorpus) terms() []string {
	out := make([]string, 0, len(bc.termDocs))
	for t := range bc.termDocs {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// allScores returns the build-time scores (used to derive chunk boundaries).
func (bc *builtCorpus) allScores() []float64 {
	out := make([]float64, 0, len(bc.docScores))
	for _, s := range bc.docScores {
		out = append(out, s)
	}
	return out
}

// populateScoreTable writes every document's build-time score into the Score
// table shared by all methods.  A fresh (empty) table is bulk-loaded from
// the already-sorted document run — one left-to-right leaf-packing pass
// instead of one B+-tree descent and leaf rewrite per document.  A rebuild
// over an existing table (MergeShortLists) keeps the per-document writes so
// deletion markers outside the snapshot survive.
func (b *base) populateScoreTable(bc *builtCorpus) error {
	if b.score.Len() == 0 && len(bc.docs) > 0 {
		items := make([]btree.Item, len(bc.docs))
		for i, doc := range bc.docs {
			items[i] = docItem(doc, docRow{val: bc.docScores[doc]})
		}
		if err := b.score.bulkLoad(b.cfg.Pool, items); err != nil {
			return err
		}
		b.numDocs.Store(int64(len(bc.docs)))
		return nil
	}
	for _, doc := range bc.docs {
		if err := b.score.Put(doc, docRow{val: bc.docScores[doc]}); err != nil {
			return err
		}
	}
	b.numDocs.Store(int64(len(bc.docs)))
	return nil
}

// rank returns (building lazily) the global (score desc, doc asc) position
// of every document.
func (bc *builtCorpus) rank() map[DocID]int32 {
	if bc.scoreRank != nil {
		return bc.scoreRank
	}
	docs := append([]DocID(nil), bc.docs...)
	sort.Slice(docs, func(i, j int) bool {
		si, sj := bc.docScores[docs[i]], bc.docScores[docs[j]]
		if si != sj {
			return si > sj
		}
		return docs[i] < docs[j]
	})
	m := make(map[DocID]int32, len(docs))
	for i, d := range docs {
		m[d] = int32(i)
	}
	bc.scoreRank = m
	return m
}

// byRank sorts postings by a precomputed rank key.
type byRank struct {
	ds []docWeight
	rs []int32
}

func (b *byRank) Len() int           { return len(b.ds) }
func (b *byRank) Less(i, j int) bool { return b.rs[i] < b.rs[j] }
func (b *byRank) Swap(i, j int) {
	b.ds[i], b.ds[j] = b.ds[j], b.ds[i]
	b.rs[i], b.rs[j] = b.rs[j], b.rs[i]
}

// sortedByScoreDesc returns a term's postings ordered by (build score desc,
// doc asc), the order required by the Score and Score-Threshold long lists.
func (bc *builtCorpus) sortedByScoreDesc(term string) []docWeight {
	rank := bc.rank()
	ds := append([]docWeight(nil), bc.termDocs[term]...)
	rs := make([]int32, len(ds))
	for i := range ds {
		rs[i] = rank[ds[i].doc]
	}
	sort.Sort(&byRank{ds: ds, rs: rs})
	return ds
}

// chunked groups a term's postings by chunk ID, returning chunk IDs in
// descending order, each with its postings in ascending document order (the
// physical layout of the Chunk long lists).
func (bc *builtCorpus) chunked(term string, ch *chunker) (cids []int32, byChunk map[int32][]postings.ChunkPosting) {
	if bc.cidChunker != ch {
		bc.cidChunker = ch
		bc.cidOf = make(map[DocID]int32, len(bc.docs))
		for _, doc := range bc.docs {
			bc.cidOf[doc] = ch.ChunkOf(bc.docScores[doc])
		}
	}
	byChunk = map[int32][]postings.ChunkPosting{}
	for _, dw := range bc.termDocs[term] {
		cid := bc.cidOf[dw.doc]
		byChunk[cid] = append(byChunk[cid], postings.ChunkPosting{Doc: dw.doc, TermScore: dw.w})
	}
	for cid := range byChunk {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] > cids[j] })
	// Postings inherit ascending doc order from termDocs, which is already
	// sorted by doc; grouping preserves it.
	return cids, byChunk
}

// fancyWorse orders fancy-list candidates: a is worse than b when it has a
// lower weight, or the same weight and a higher document ID (the same
// eviction order as topk.Heap).
func fancyWorse(a, b docWeight) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.doc > b.doc
}

// fancy returns the top-n postings of a term by term weight, in ascending
// document order, plus the smallest weight included (the ε_t used by the
// Chunk-TermScore stopping rule).  Lists longer than n go through a size-n
// min-heap selection (O(L log n)) instead of a full sort.  The heap is a
// local slice rather than topk.Heap on purpose: topk maintains a doc→slot
// map per movement for its query-time duplicate handling, and that
// bookkeeping measurably slows the build (this loop runs once per distinct
// term over every posting in the collection).
func (bc *builtCorpus) fancy(term string, n int) (posts []docWeight, minWeight float32) {
	src := bc.termDocs[term]
	if len(src) <= n {
		// Every posting qualifies; src is already in ascending doc order.
		ds := append([]docWeight(nil), src...)
		for i, dw := range ds {
			if i == 0 || dw.w < minWeight {
				minWeight = dw.w
			}
		}
		return ds, minWeight
	}
	// Min-heap of the n best seen so far, rooted at the worst of them.
	heap := make([]docWeight, 0, n)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(heap) && fancyWorse(heap[l], heap[worst]) {
				worst = l
			}
			if r < len(heap) && fancyWorse(heap[r], heap[worst]) {
				worst = r
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	for _, dw := range src {
		if len(heap) < n {
			heap = append(heap, dw)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !fancyWorse(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			continue
		}
		if fancyWorse(dw, heap[0]) {
			continue
		}
		heap[0] = dw
		siftDown(0)
	}
	minWeight = heap[0].w
	sort.Slice(heap, func(i, j int) bool { return heap[i].doc < heap[j].doc })
	return heap, minWeight
}
