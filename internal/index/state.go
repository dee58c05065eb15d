package index

import (
	"fmt"
	"maps"

	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
)

// TreeRef anchors one B+-tree for a checkpoint: its root page and key
// count.
type TreeRef struct {
	Root pagefile.PageID
	Size int
}

func treeRefOf(t *btree.Tree) TreeRef {
	return TreeRef{Root: t.RootPage(), Size: t.Len()}
}

// MethodAnchor is the small half of a method's navigational state: tree
// roots and sizes, counts, and the generation of the dictionary half.  It
// changes with every batch and a durable engine rewrites it at every commit.
// Kind selects which of the optional structure anchors are meaningful; unused
// ones stay zero.
type MethodAnchor struct {
	// Kind is the Method.Name() of the snapshotted index.
	Kind string

	NumDocs   int64
	LongBytes uint64
	// LongRawBytes is the fixed-width footprint of the long-list postings
	// (the raw side of the compression ratio reported by Stats).
	LongRawBytes uint64
	// Score anchors the Score table's tree (whose rows, in the threshold
	// family, record each document's list key).
	Score TreeRef

	// Lists anchors the ID family's auxiliary list, the Score method's
	// clustered lists, and the threshold/chunk families' short lists — each
	// method has exactly one mutable keyed list.
	Lists TreeRef

	// FancyBytes is the fancy lists' footprint (Chunk-TermScore only).
	FancyBytes uint64

	// DictGen counts the mutations of the MethodDict half: build, merge,
	// document insert/delete and content edits bump it, score updates do
	// not.  A checkpoint rewrites the persisted dictionary only when this
	// differs from the generation it last wrote.
	DictGen uint64
}

// MethodDict is the bulky, rarely changing half: everything keyed by term
// that a score update never touches.  It holds nothing per document — a
// document's content lives only in the document source — so an insert
// changes it only through the dictionary's terms and document frequencies.
type MethodDict struct {
	// LongRefs maps each term to its immutable long inverted list blob.
	LongRefs map[string]blob.Ref
	Dict     text.DictionaryState

	// ChunkLower is the chunker's boundary vector (chunk families only).
	ChunkLower []float64

	// ScoreDir is the Score-Threshold method's score directory: the distinct
	// build-time scores in descending order that its long lists encode
	// ranks against.  Nil for other methods.
	ScoreDir []float64

	// Fancy-list anchors (Chunk-TermScore only).
	FancyRefs map[string]blob.Ref
	FancyMinW map[string]float32
}

// MethodState is the serializable navigational state of one index method:
// everything Restore needs to reattach to the trees and blobs a checkpoint
// left in the page file.
type MethodState struct {
	MethodAnchor
	MethodDict
}

// --- per-structure snapshot/open helpers -------------------------------------

func openKeyedList(pool *buffer.Pool, r TreeRef) *keyedList {
	return &keyedList{tree: btree.Open(pool, r.Root, r.Size), opIdx: map[string]int{}, docOps: map[DocID][]int{}}
}

func openDocTable(pool *buffer.Pool, r TreeRef, width rowWidth) *docTable {
	return &docTable{tree: btree.Open(pool, r.Root, r.Size), width: width, pending: map[DocID]docRow{}}
}

func copyRefs(src map[string]blob.Ref) map[string]blob.Ref {
	out := make(map[string]blob.Ref, len(src))
	for t, r := range src {
		out[t] = r
	}
	return out
}

// Anchor implements Method.
func (b *base) Anchor() MethodAnchor {
	return MethodAnchor{
		Kind:         b.Name(),
		NumDocs:      b.numDocs.Load(),
		LongBytes:    b.longBytes,
		LongRawBytes: b.longRawBytes,
		Score:        treeRefOf(b.score.tree),
		Lists:        treeRefOf(b.lists.tree),
		FancyBytes:   b.fancyBytes,
		DictGen:      b.dictGen,
	}
}

// Dictionary implements Method.
func (b *base) Dictionary() MethodDict {
	d := MethodDict{
		LongRefs: copyRefs(b.longRefs),
		Dict:     b.dict.State(),
		ScoreDir: append([]float64(nil), b.scoreDir...),
	}
	if b.chunks != nil {
		d.ChunkLower = append([]float64(nil), b.chunks.lower...)
	}
	if b.fancyRefs != nil {
		d.FancyRefs = copyRefs(b.fancyRefs)
		d.FancyMinW = maps.Clone(b.fancyMinW)
	}
	return d
}

// State implements Method.
func (b *base) State() MethodState { return MethodState{b.Anchor(), b.Dictionary()} }

// SetSource rewires the document source after a restore.  The source feeds
// maintenance paths that need a document's token stream (Score-method
// posting moves, deletions); it must present the same document IDs the
// index was built over.
func (b *base) SetSource(src DocSource) { b.src = src }

// Restore reattaches a method to the structures a checkpoint recorded.  It
// is the inverse of Method.State(): nothing is rebuilt; the returned method
// serves queries and updates against the trees and blobs already in the
// page file.  The only pages it reads are the Chunk family's Score table,
// once through, to re-derive the key ceilings, which are not persisted.
// Call SetSource afterwards to rewire the document source.
func Restore(cfg Config, st MethodState) (Method, error) {
	k, err := lookupKind(st.Kind)
	if err != nil {
		return nil, err
	}
	if cfg, err = cfg.checked(); err != nil {
		return nil, err
	}
	b := &base{
		kind:         k,
		cfg:          cfg,
		store:        blob.NewStore(cfg.Pool),
		dict:         text.RestoreDictionary(st.Dict),
		score:        openDocTable(cfg.Pool, st.Score, k.rowWidth()),
		lists:        openKeyedList(cfg.Pool, st.Lists),
		longRefs:     copyRefs(st.LongRefs),
		longBytes:    st.LongBytes,
		longRawBytes: st.LongRawBytes,
		scoreDir:     append([]float64(nil), st.ScoreDir...),
		fancyBytes:   st.FancyBytes,
		dictGen:      st.DictGen,
	}
	if len(st.ChunkLower) > 0 {
		b.chunks = &chunker{lower: append([]float64(nil), st.ChunkLower...)}
	}
	if st.FancyRefs != nil {
		b.fancyRefs = copyRefs(st.FancyRefs)
		b.fancyMinW = maps.Clone(st.FancyMinW)
	}
	b.numDocs.Store(st.NumDocs)
	m := k.attach(b)
	if b.ceil != nil {
		if err := b.deriveCeilings(); err != nil {
			return nil, fmt.Errorf("index: restore %s key ceilings: %w", k.Name, err)
		}
	}
	return b.start(m), nil
}
