package index

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
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

// deadRow is a deleted marker a merge carries over into the Score table it
// rebuilds: the row as it stood, so that the document stays deleted.
type deadRow struct {
	doc DocID
	row docRow
}

// populateScoreTable bulk-loads a fresh Score table — one left-to-right
// leaf-packing pass instead of one B+-tree descent per document — and
// retires the one it replaces: every document at its build score, filed
// under the key of that score, and the deleted markers dead.  A build
// replaces the empty table it starts with; a merge rewrites its table under
// the new list keys.
func (b *base) populateScoreTable(bc *builtCorpus, dead []deadRow) error {
	b.numDocs.Store(int64(len(bc.docs)))
	w := b.score.width
	items := make([]btree.Item, 0, len(bc.docs)+len(dead))
	for _, doc := range bc.docs {
		score := bc.docScores[doc]
		items = append(items, w.item(doc, docRow{val: score, key: b.keyOf(score)}))
	}
	if len(dead) > 0 {
		for _, d := range dead {
			items = append(items, w.item(d.doc, d.row))
		}
		slices.SortFunc(items, func(x, y btree.Item) int { return bytes.Compare(x.Key, y.Key) })
	}
	if len(items) == 0 {
		return nil
	}
	return b.score.bulkLoad(b.cfg.Pool, items)
}

// listRanks is a build's list order: every document's rank in (list key
// desc, doc asc) order, the key at each rank, and the scratch listEntries
// sorts a term's postings in.
type listRanks struct {
	rank  map[DocID]uint32
	keys  []float64
	order []uint64
}

// listRanks ranks every document by the list key keyOf files its build
// score under.
func (bc *builtCorpus) listRanks(keyOf func(float64) float64) *listRanks {
	docs := make([]postings.Entry, len(bc.docs))
	for i, doc := range bc.docs {
		docs[i] = postings.Entry{Doc: doc, SortKey: keyOf(bc.docScores[doc])}
	}
	slices.SortFunc(docs, func(a, b postings.Entry) int {
		if c := cmp.Compare(b.SortKey, a.SortKey); c != 0 {
			return c
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	r := &listRanks{rank: make(map[DocID]uint32, len(docs)), keys: make([]float64, len(docs))}
	for i, e := range docs {
		r.rank[e.Doc], r.keys[i] = uint32(i), e.SortKey
	}
	return r
}

// listEntries appends a term's postings to dst in list order, (key desc,
// doc asc) under r: the order of every long list and of the Score method's
// clustered lists.  A nil r is the ID family's document order, which
// termDocs already has.  The postings sort as (rank, index) integers, so
// the per-term sort compares machine words.
func (bc *builtCorpus) listEntries(dst []postings.Entry, term string, r *listRanks) []postings.Entry {
	ds := bc.termDocs[term]
	if r == nil {
		for _, dw := range ds {
			dst = append(dst, postings.Entry{Doc: dw.doc, TermScore: dw.w})
		}
		return dst
	}
	r.order = r.order[:0]
	for i, dw := range ds {
		r.order = append(r.order, uint64(r.rank[dw.doc])<<32|uint64(i))
	}
	slices.Sort(r.order)
	for _, o := range r.order {
		dw := ds[uint32(o)]
		dst = append(dst, postings.Entry{Doc: dw.doc, SortKey: r.keys[o>>32], TermScore: dw.w})
	}
	return dst
}

// buildLists writes every term's long list in the kind's layout through one
// packer, and behind each a Chunk-TermScore term's fancy list (§4.3.3).  It
// is the kindMethod step of every kind that keeps long lists; the threshold
// family derives its list keys first.
func (b *base) buildLists(bc *builtCorpus) error {
	// Published snapshots share the ref maps by pointer, so accumulate into
	// fresh maps and swap them in wholesale.
	refs := make(map[string]blob.Ref, len(bc.termDocs))
	var fancyRefs map[string]blob.Ref
	var fancyMinW map[string]float32
	fancy := b.kind.layout == postings.LayoutChunkTerm
	if fancy {
		fancyRefs = make(map[string]blob.Ref, len(bc.termDocs))
		fancyMinW = make(map[string]float32, len(bc.termDocs))
	}
	var ranks *listRanks
	if b.kind.layout != postings.LayoutID && b.kind.layout != postings.LayoutIDTerm {
		ranks = bc.listRanks(b.keyOf)
	}
	packer := b.store.NewPacker()
	w := postings.NewWriter(b.kind.layout, b.scoreDir)
	fw := postings.NewWriter(postings.LayoutIDTerm, nil)
	var entries []postings.Entry
	for _, term := range bc.terms() {
		entries = bc.listEntries(entries[:0], term, ranks)
		w.Reset()
		for _, e := range entries {
			if err := w.Add(e); err != nil {
				return fmt.Errorf("index: build %s list for %q: %w", b.kind.Name, term, err)
			}
		}
		data := w.Bytes()
		ref, err := packer.Put(data)
		if err != nil {
			return err
		}
		refs[term] = ref
		b.longBytes += uint64(len(data))
		b.longRawBytes += w.RawBytes()
		if fancy {
			if fancyRefs[term], fancyMinW[term], err = b.buildFancyList(packer, fw, bc, term); err != nil {
				return err
			}
		}
	}
	if err := packer.Close(); err != nil {
		return err
	}
	b.longRefs, b.fancyRefs, b.fancyMinW = refs, fancyRefs, fancyMinW
	return nil
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
