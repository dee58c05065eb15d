package index

import (
	"fmt"

	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/epoch"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
)

// TreeRef anchors one B+-tree for a checkpoint: its root page and key
// count.  Entries additionally carries a keyedList's posting count (which
// the list tracks separately from the tree's key count).
type TreeRef struct {
	Root    pagefile.PageID
	Size    int
	Entries int
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
	// Score anchors the Score table's tree.
	Score TreeRef

	// Lists anchors the ID family's auxiliary list, the Score method's
	// clustered lists, and the threshold/chunk families' short lists — each
	// method has exactly one mutable keyed list.
	Lists TreeRef
	// ListTable anchors the ListScore/ListChunk table (threshold and chunk
	// families only).
	ListTable TreeRef

	// FancyBytes is the fancy lists' footprint (Chunk-TermScore only).
	FancyBytes uint64

	// DictGen counts the mutations of the MethodDict half: build, merge,
	// document insert/delete and content edits bump it, score updates do
	// not.  A checkpoint rewrites the persisted dictionary only when this
	// differs from the generation it last wrote.
	DictGen uint64
}

// MethodDict is the bulky, rarely changing half: everything keyed by term or
// by document that a score update never touches.
type MethodDict struct {
	// LongRefs maps each term to its immutable long inverted list blob.
	LongRefs map[string]blob.Ref
	Dict     text.DictionaryState
	// KnownTokens carries the distinct-term cache for incrementally inserted
	// documents (every family except the Score method keeps one).
	KnownTokens map[DocID][]string

	// ChunkLower is the chunker's boundary vector (chunk families only).
	ChunkLower []float64

	// ScoreDir is the Score-Threshold method's score directory: the distinct
	// build-time scores in descending order that its compressed long lists
	// encode ranks against.  Nil for other methods or uncompressed builds.
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

func (l *keyedList) state() TreeRef {
	r := treeRefOf(l.tree)
	r.Entries = l.entries
	return r
}

func openKeyedList(pool *buffer.Pool, r TreeRef) *keyedList {
	return &keyedList{tree: btree.Open(pool, r.Root, r.Size), entries: r.Entries}
}

func openScoreTable(pool *buffer.Pool, r TreeRef) *scoreTable {
	return &scoreTable{tree: btree.Open(pool, r.Root, r.Size)}
}

func openListTable(pool *buffer.Pool, r TreeRef) *listTable {
	return &listTable{tree: btree.Open(pool, r.Root, r.Size)}
}

func copyTokenCache(src map[DocID][]string) map[DocID][]string {
	out := make(map[DocID][]string, len(src))
	for doc, terms := range src {
		out[doc] = append([]string(nil), terms...)
	}
	return out
}

func copyRefs(src map[string]blob.Ref) map[string]blob.Ref {
	out := make(map[string]blob.Ref, len(src))
	for t, r := range src {
		out[t] = r
	}
	return out
}

// baseAnchor fills the anchor fields shared by every method.
func (b *base) baseAnchor(kind string) MethodAnchor {
	return MethodAnchor{
		Kind:         kind,
		NumDocs:      b.numDocs.Load(),
		LongBytes:    b.longBytes,
		LongRawBytes: b.longRawBytes,
		Score:        treeRefOf(b.score.tree),
		DictGen:      b.dictGen,
	}
}

// baseDict fills the dictionary fields shared by every method.
func (b *base) baseDict() MethodDict {
	return MethodDict{LongRefs: copyRefs(b.longRefs), Dict: b.dict.State()}
}

// openBase rebuilds the shared plumbing from a snapshot.  The document
// source must be rewired by the caller (SetSource) before maintenance runs.
func openBase(cfg Config, st *MethodState) (*base, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("index: Config.Pool is required")
	}
	cfg = cfg.Defaults()
	b := &base{
		cfg:          cfg,
		store:        blob.NewStore(cfg.Pool),
		dict:         text.RestoreDictionary(st.Dict),
		score:        openScoreTable(cfg.Pool, st.Score),
		longRefs:     copyRefs(st.LongRefs),
		longBytes:    st.LongBytes,
		longRawBytes: st.LongRawBytes,
	}
	b.numDocs.Store(st.NumDocs)
	b.dictGen = st.DictGen
	b.epochs = epoch.New(cfg.Pool.FreePage)
	b.score.enableCOW(b.retirePage)
	return b, nil
}

// SetSource rewires the document source after a restore.  The source feeds
// maintenance paths that need a document's token stream (Score-method
// posting moves, deletions); it must present the same document IDs the
// index was built over.
func (b *base) SetSource(src DocSource) { b.src = src }

// --- per-method Anchor / Dictionary / State ----------------------------------

// Anchor implements Method.
func (m *IDMethod) Anchor() MethodAnchor {
	a := m.baseAnchor(m.Name())
	a.Lists = m.aux.state()
	return a
}

// Dictionary implements Method.
func (m *IDMethod) Dictionary() MethodDict {
	d := m.baseDict()
	d.KnownTokens = copyTokenCache(m.knownTokens)
	return d
}

// State implements Method.
func (m *IDMethod) State() MethodState { return MethodState{m.Anchor(), m.Dictionary()} }

// Anchor implements Method.
func (m *ScoreMethod) Anchor() MethodAnchor {
	a := m.baseAnchor(m.Name())
	a.Lists = m.lists.state()
	return a
}

// Dictionary implements Method.
func (m *ScoreMethod) Dictionary() MethodDict { return m.baseDict() }

// State implements Method.
func (m *ScoreMethod) State() MethodState { return MethodState{m.Anchor(), m.Dictionary()} }

// Anchor implements Method.
func (m *ScoreThresholdMethod) Anchor() MethodAnchor {
	a := m.baseAnchor(m.Name())
	a.Lists = m.short.state()
	a.ListTable = treeRefOf(m.listScore.tree)
	return a
}

// Dictionary implements Method.
func (m *ScoreThresholdMethod) Dictionary() MethodDict {
	d := m.baseDict()
	d.KnownTokens = copyTokenCache(m.knownTokens)
	d.ScoreDir = append([]float64(nil), m.scoreDir...)
	return d
}

// State implements Method.
func (m *ScoreThresholdMethod) State() MethodState {
	return MethodState{m.Anchor(), m.Dictionary()}
}

// Anchor implements Method.
func (m *ChunkMethod) Anchor() MethodAnchor {
	a := m.baseAnchor(m.Name())
	a.Lists = m.short.state()
	a.ListTable = treeRefOf(m.listChunk.tree)
	return a
}

// Dictionary implements Method.
func (m *ChunkMethod) Dictionary() MethodDict {
	d := m.baseDict()
	d.KnownTokens = copyTokenCache(m.knownTokens)
	if m.chunks != nil {
		d.ChunkLower = append([]float64(nil), m.chunks.lower...)
	}
	return d
}

// State implements Method.
func (m *ChunkMethod) State() MethodState { return MethodState{m.Anchor(), m.Dictionary()} }

// Anchor implements Method.
func (m *ChunkTermScoreMethod) Anchor() MethodAnchor {
	a := m.ChunkMethod.Anchor()
	a.Kind = m.Name()
	a.FancyBytes = m.fancyBytes
	return a
}

// Dictionary implements Method.
func (m *ChunkTermScoreMethod) Dictionary() MethodDict {
	d := m.ChunkMethod.Dictionary()
	d.FancyRefs = copyRefs(m.fancyRefs)
	d.FancyMinW = make(map[string]float32, len(m.fancyMinW))
	for t, w := range m.fancyMinW {
		d.FancyMinW[t] = w
	}
	return d
}

// State implements Method.
func (m *ChunkTermScoreMethod) State() MethodState {
	return MethodState{m.Anchor(), m.Dictionary()}
}

// --- Restore ----------------------------------------------------------------

// Restore reattaches a method to the structures a checkpoint recorded.  It
// is the inverse of Method.State(): no pages are read and nothing is
// rebuilt; the returned method serves queries and updates against the trees
// and blobs already in the page file.  Call SetSource afterwards to rewire
// the document source.
func Restore(cfg Config, st MethodState) (Method, error) {
	b, err := openBase(cfg, &st)
	if err != nil {
		return nil, err
	}
	// Each constructor below reattaches its trees and then runs the method's
	// initSnapshots, which COW-enables the restored trees and publishes the
	// first post-restore snapshot.
	switch st.Kind {
	case "ID", "ID-TermScore":
		m := &IDMethod{
			base:           b,
			withTermScores: st.Kind == "ID-TermScore",
			aux:            openKeyedList(b.cfg.Pool, st.Lists),
			knownTokens:    copyTokenCache(st.KnownTokens),
		}
		m.initSnapshots()
		return m, nil
	case "Score":
		m := &ScoreMethod{
			base:  b,
			lists: openKeyedList(b.cfg.Pool, st.Lists),
		}
		m.initSnapshots()
		return m, nil
	case "Score-Threshold":
		m := &ScoreThresholdMethod{
			base:        b,
			short:       openKeyedList(b.cfg.Pool, st.Lists),
			listScore:   openListTable(b.cfg.Pool, st.ListTable),
			knownTokens: copyTokenCache(st.KnownTokens),
			scoreDir:    append([]float64(nil), st.ScoreDir...),
		}
		m.initSnapshots()
		return m, nil
	case "Chunk", "Chunk-TermScore":
		cm := &ChunkMethod{
			base:        b,
			short:       openKeyedList(b.cfg.Pool, st.Lists),
			listChunk:   openListTable(b.cfg.Pool, st.ListTable),
			knownTokens: copyTokenCache(st.KnownTokens),
		}
		if len(st.ChunkLower) > 0 {
			cm.chunks = &chunker{lower: append([]float64(nil), st.ChunkLower...)}
		}
		if st.Kind == "Chunk" {
			cm.initSnapshots()
			return cm, nil
		}
		cts := &ChunkTermScoreMethod{
			ChunkMethod: cm,
			fancyRefs:   copyRefs(st.FancyRefs),
			fancyMinW:   make(map[string]float32, len(st.FancyMinW)),
			fancyBytes:  st.FancyBytes,
		}
		for t, w := range st.FancyMinW {
			cts.fancyMinW[t] = w
		}
		cts.initSnapshots()
		return cts, nil
	default:
		return nil, fmt.Errorf("index: cannot restore unknown method kind %q", st.Kind)
	}
}
