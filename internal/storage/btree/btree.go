package btree

import (
	"bytes"
	"errors"
	"fmt"

	"sync/atomic"

	"svrdb/internal/codec"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

const (
	nodeLeaf     = byte(1)
	nodeInternal = byte(2)
)

// maxDepth bounds a root-to-leaf descent.  Fan-out is in the tens even at
// the smallest page size, so no tree this package builds comes near it; a
// descent that gets this far is walking corrupt child pointers in a circle,
// and stopping turns a hang into an error.
const maxDepth = 64

// ErrEntryTooLarge is returned when a key/value pair cannot fit in a page.
var ErrEntryTooLarge = errors.New("btree: entry too large for page")

// Tree is a B+-tree.  It is mutated only through the sorted batch
// (UpsertBatch, DeleteBatch) and read only through a View (Get is a lookup
// on a View of the current root).  It is not safe for concurrent mutation;
// the engine serializes index updates, as the paper's single update stream
// does.  Concurrent readers (View lookups, scans and Probes) are safe with
// each other, and the mutable tree metadata — the root page, the key count
// and the patch counter — is held in atomics so that metadata reads
// (Len, Patches, a reader starting its descent) race-cleanly against a
// serialized writer instead of tearing.  Node *contents* are another
// matter.  A copy-on-write tree (EnableCOW) needs no lock for them: its
// writer never overwrites a page a published View can reach, and epochs
// keep superseded pages readable until their readers leave.  A tree mutated
// in place needs its owner to exclude readers while it writes, as
// relation.Table does with its rowMu.
type Tree struct {
	pool *buffer.Pool
	root atomic.Uint64 // current root pagefile.PageID
	size atomic.Int64  // number of live keys

	// patches counts writes absorbed by the in-place leaf patch fast path.
	patches atomic.Uint64
	// disablePatch forces every write through the parse→reserialize path;
	// equivalence tests use it to pit the two paths against each other.
	disablePatch bool

	// cow switches the tree to copy-on-write mutation: pages written since
	// the last Seal (tracked in fresh) may still be mutated in place, but a
	// page that a published snapshot can reach is never overwritten —
	// mutating it allocates a new page, rewires the ancestor path and hands
	// the old page to retire.  Concurrent readers walk a View captured at
	// publication time and never observe a half-built state.
	cow    bool
	retire func(pagefile.PageID)
	fresh  map[pagefile.PageID]struct{}
	// prev maps each page a copy went to onto the page it was copied from:
	// the page the node held one version earlier, which the copy reserves
	// in the file (pagefile.File.Reserve) so that no other allocation takes
	// it while it is free.  The node's next copy asks the allocator for that
	// page back.  It is usually free again by then, once the epoch that
	// retired it drained, and its bytes are an older version of the same
	// node, so the durable file's delta against them is small.  Each node
	// keeps at most one reservation: its next copy's allocation drops it,
	// and freePage drops that of a node that ends without a copy.  prev is a
	// hint and is not persisted: after a reopen a node's first copy takes
	// any free page.
	prev map[pagefile.PageID]pagefile.PageID
}

// EnableCOW switches the tree to copy-on-write mutation.  retire receives
// every page a mutation supersedes (typically epoch.Manager.Retire, which
// recycles it once concurrent readers drain).  Pages the tree allocates
// after this call are private until Seal marks them published.
func (t *Tree) EnableCOW(retire func(pagefile.PageID)) {
	t.cow = true
	t.retire = retire
	t.fresh = map[pagefile.PageID]struct{}{}
	t.prev = map[pagefile.PageID]pagefile.PageID{}
}

// Seal marks every page of the tree as published: the writer has made the
// current root reachable by readers (via View), so from now on mutations
// copy pages instead of overwriting them.  Called once per publication.
func (t *Tree) Seal() {
	if t.cow {
		clear(t.fresh)
	}
}

// mutableInPlace reports whether the page may be overwritten where it is:
// always outside COW mode, and only for unpublished (fresh) pages in it.
func (t *Tree) mutableInPlace(id pagefile.PageID) bool {
	if !t.cow {
		return true
	}
	_, ok := t.fresh[id]
	return ok
}

// writeNodeOut flushes n to a page it is allowed to occupy: its own page
// when that is mutable in place, otherwise a newly allocated page (the old
// one is retired and n.id is updated).  It returns the page the node now
// lives at; the caller is responsible for rewiring the parent pointer when
// the id changed.
func (t *Tree) writeNodeOut(n *node) (pagefile.PageID, error) {
	if t.mutableInPlace(n.id) {
		return n.id, t.flushNode(n)
	}
	old := n.id
	fr, err := t.copyPage(old)
	if err != nil {
		return pagefile.InvalidPageID, err
	}
	n.id = fr.ID()
	err = writeNode(fr, n, t.pool.PageSize())
	fr.Release()
	if err != nil {
		return pagefile.InvalidPageID, err
	}
	if err := t.freePage(old); err != nil {
		return pagefile.InvalidPageID, err
	}
	return n.id, nil
}

// copyPage allocates the fresh page a copy of the published node at from
// goes to, asking for the page that node held one version earlier (the
// allocation drops that page's reservation), reserves from in its place,
// and returns the copy pinned.  The caller frees from.
func (t *Tree) copyPage(from pagefile.PageID) (*buffer.Frame, error) {
	prefer, ok := t.prev[from]
	if !ok {
		prefer = pagefile.InvalidPageID
	}
	fr, err := t.pool.NewPage(prefer)
	if err != nil {
		return nil, err
	}
	delete(t.prev, from)
	t.pool.File().Reserve(from)
	t.fresh[fr.ID()] = struct{}{}
	t.prev[fr.ID()] = from
	return fr, nil
}

// clonePage copies the pinned page into a fresh page and returns the new
// frame pinned (the caller releases it).  UpsertBatch promotes a published
// leaf to a private clone this way, and replaceChildPointer a published
// ancestor, both without parsing the page.
func (t *Tree) clonePage(fr *buffer.Frame) (*buffer.Frame, error) {
	nfr, err := t.copyPage(fr.ID())
	if err != nil {
		return nil, err
	}
	copy(nfr.Data(), fr.Data())
	nfr.MarkDirty()
	return nfr, nil
}

// replaceChildPointer rewires the child pointer old → new along the
// root-to-parent path (deepest ancestor last), copying published ancestors
// on the way and updating the root when the relocation bubbles to it.
// Child pointers are fixed-width 8-byte fields, so a mutable ancestor is
// patched in its pinned page without a parse.
func (t *Tree) replaceChildPointer(path []pagefile.PageID, old, new pagefile.PageID) error {
	for i := len(path) - 1; i >= 0; i-- {
		pid := path[i]
		fr, err := t.pool.Get(pid)
		if err != nil {
			return err
		}
		off, err := pageFindChildOffset(pid, fr.Data(), old)
		if err != nil {
			fr.Release()
			return err
		}
		var enc [8]byte
		codec.PutUint64(enc[:0], uint64(new))
		if t.mutableInPlace(pid) {
			fr.Patch(off, enc[:])
			fr.Release()
			return nil
		}
		nfr, err := t.clonePage(fr)
		fr.Release()
		if err != nil {
			return err
		}
		nfr.Patch(off, enc[:])
		nid := nfr.ID()
		nfr.Release()
		if err := t.freePage(pid); err != nil {
			return err
		}
		old, new = pid, nid
	}
	// The relocation reached the top of the path: the root itself moved.
	t.setRoot(new)
	return nil
}

// internalHeader checks the header of a serialized internal node and returns
// its separator count and the offset of its first child pointer.  Every
// separator occupies at least a length prefix and a child pointer, which
// bounds the count a page can hold: a larger one is corrupt.
func internalHeader(id pagefile.PageID, data []byte) (n uint64, child0Off int, err error) {
	if len(data) == 0 || data[0] != nodeInternal {
		return 0, 0, fmt.Errorf("btree: page %d is not an internal node", id)
	}
	n, sz, err := codec.Uvarint(data[1:])
	if err != nil {
		return 0, 0, fmt.Errorf("btree: page %d: %w", id, err)
	}
	off := 1 + sz
	if off+8 > len(data) || n > uint64(len(data)-off-8)/9 {
		return 0, 0, fmt.Errorf("btree: page %d internal header claims %d separators in %d bytes", id, n, len(data))
	}
	return n, off, nil
}

// eachChild calls fn with the byte offset and value of each 8-byte child
// pointer of a serialized internal node, in order, until fn returns false.
func eachChild(id pagefile.PageID, data []byte, fn func(off int, child pagefile.PageID) bool) error {
	nKeys, off, err := internalHeader(id, data)
	if err != nil {
		return err
	}
	for i := uint64(0); ; i++ {
		c, _, err := codec.Uint64(data[off:])
		if err != nil {
			return err
		}
		if !fn(off, pagefile.PageID(c)) || i == nKeys {
			return nil
		}
		off += 8
		_, sz, err := codec.LenBytes(data[off:])
		if err != nil {
			return err
		}
		off += sz
	}
}

// pageFindChildOffset scans a serialized internal node for the 8-byte child
// pointer equal to child and returns its byte offset within the page.
func pageFindChildOffset(id pagefile.PageID, data []byte, child pagefile.PageID) (int, error) {
	found := -1
	err := eachChild(id, data, func(off int, c pagefile.PageID) bool {
		if c == child {
			found = off
		}
		return found < 0
	})
	if err != nil {
		return 0, err
	}
	if found < 0 {
		return 0, fmt.Errorf("btree: page %d has no child pointer to %d", id, child)
	}
	return found, nil
}

// rootID returns the current root page.
func (t *Tree) rootID() pagefile.PageID { return pagefile.PageID(t.root.Load()) }

// setRoot installs a new root page.
func (t *Tree) setRoot(id pagefile.PageID) { t.root.Store(uint64(id)) }

// node is the in-memory form of a page.
type node struct {
	id   pagefile.PageID
	leaf bool
	keys [][]byte

	// leaf fields
	vals [][]byte

	// internal fields: len(children) == len(keys)+1, keys[i] is the smallest
	// key reachable through children[i+1].
	children []pagefile.PageID
}

// New creates an empty tree with a single leaf root.
func New(pool *buffer.Pool) (*Tree, error) {
	fr, err := pool.NewPage(pagefile.InvalidPageID)
	if err != nil {
		return nil, err
	}
	root := &node{id: fr.ID(), leaf: true}
	if err := writeNode(fr, root, pool.PageSize()); err != nil {
		fr.Release()
		return nil, err
	}
	fr.Release()
	t := &Tree{pool: pool}
	t.setRoot(root.id)
	return t, nil
}

// MustNew is like New but panics on error; intended for tests and examples.
func MustNew(pool *buffer.Pool) *Tree {
	t, err := New(pool)
	if err != nil {
		panic(err)
	}
	return t
}

// Open attaches to an existing tree whose root page and key count were
// recorded at a checkpoint (see RootPage and Len).  It does no I/O: the
// first descent validates the root the usual way.
func Open(pool *buffer.Pool, root pagefile.PageID, size int) *Tree {
	t := &Tree{pool: pool}
	t.setRoot(root)
	t.size.Store(int64(size))
	return t
}

// Len reports the number of keys stored in the tree.
func (t *Tree) Len() int { return int(t.size.Load()) }

// Patches reports how many writes were absorbed by the in-place leaf patch
// fast path since the tree was created.
func (t *Tree) Patches() uint64 { return t.patches.Load() }

// RootPage returns the page ID of the root node.
func (t *Tree) RootPage() pagefile.PageID { return t.rootID() }

// maxEntrySize is the largest serialized key+value entry allowed, chosen so
// that a node can always hold at least four entries.
func (t *Tree) maxEntrySize() int { return t.pool.PageSize() / 4 }

// --- node serialization -----------------------------------------------------

// appendNode appends n's serialization to dst.
//
// Layout (leaf):
//
//	[1 type][varint nKeys] { [len key][key][len val][val] }*
//
// Leaves carry no sibling pointers: every range scan re-descends from a
// frozen root at the previous leaf's upper bound (View.Cursor).
//
// Layout (internal):
//
//	[1 type][varint nKeys][8 child0] { [len key][key][8 child] }*
func appendNode(dst []byte, n *node) []byte {
	if n.leaf {
		dst = append(dst, nodeLeaf)
		dst = codec.PutUvarint(dst, uint64(len(n.keys)))
		for i := range n.keys {
			dst = codec.PutLenBytes(dst, n.keys[i])
			dst = codec.PutLenBytes(dst, n.vals[i])
		}
		return dst
	}
	dst = append(dst, nodeInternal)
	dst = codec.PutUvarint(dst, uint64(len(n.keys)))
	dst = codec.PutUint64(dst, uint64(n.children[0]))
	for i := range n.keys {
		dst = codec.PutLenBytes(dst, n.keys[i])
		dst = codec.PutUint64(dst, uint64(n.children[i+1]))
	}
	return dst
}

// nodeSize is the length of n's serialization, counted without building it.
func nodeSize(n *node) int {
	if n.leaf {
		size := leafHeaderSize(len(n.keys))
		for i := range n.keys {
			size += entrySize(n.keys[i], n.vals[i])
		}
		return size
	}
	size := internalHeaderSize(len(n.keys))
	for _, k := range n.keys {
		size += internalEntrySize(k)
	}
	return size
}

// putNode serializes n into page, zeroing the bytes past it.
func putNode(page []byte, n *node) error {
	if size := nodeSize(n); size > len(page) {
		return fmt.Errorf("btree: serialized node %d bytes exceeds page size %d", size, len(page))
	}
	clear(page[len(appendNode(page[:0], n)):])
	return nil
}

// writeNode serializes n straight into the frame's page.
func writeNode(fr *buffer.Frame, n *node, pageSize int) error {
	if err := putNode(fr.Data()[:pageSize], n); err != nil {
		return err
	}
	fr.MarkDirty()
	return nil
}

// parseNode returns the in-memory form of the page.  The page is copied once
// and every key and value aliases that copy, capped at its own length so an
// append to one entry reallocates instead of writing over its neighbour.
func parseNode(id pagefile.PageID, page []byte) (*node, error) {
	if len(page) == 0 {
		return nil, fmt.Errorf("btree: empty page %d", id)
	}
	data := append([]byte(nil), page...)
	n := &node{id: id}
	off := 1
	nKeys64, sz, err := codec.Uvarint(data[off:])
	if err != nil {
		return nil, fmt.Errorf("btree: page %d: %w", id, err)
	}
	off += sz
	// Every entry occupies at least two bytes, so a larger count is corrupt;
	// rejecting it here keeps it from sizing the slices below.
	if nKeys64 > uint64(len(data)) {
		return nil, fmt.Errorf("btree: page %d header claims %d entries in %d bytes", id, nKeys64, len(data))
	}
	nKeys := int(nKeys64)
	// The slices get room for one more entry: the write path parses a node
	// to add one.
	switch data[0] {
	case nodeLeaf:
		n.leaf = true
		n.keys = make([][]byte, 0, nKeys+1)
		n.vals = make([][]byte, 0, nKeys+1)
		for i := 0; i < nKeys; i++ {
			k, sz, err := codec.LenBytes(data[off:])
			if err != nil {
				return nil, err
			}
			off += sz
			v, sz, err := codec.LenBytes(data[off:])
			if err != nil {
				return nil, err
			}
			off += sz
			n.keys = append(n.keys, k[:len(k):len(k)])
			n.vals = append(n.vals, v[:len(v):len(v)])
		}
	case nodeInternal:
		child0, sz, err := codec.Uint64(data[off:])
		if err != nil {
			return nil, err
		}
		off += sz
		n.keys = make([][]byte, 0, nKeys+1)
		n.children = make([]pagefile.PageID, 0, nKeys+2)
		n.children = append(n.children, pagefile.PageID(child0))
		for i := 0; i < nKeys; i++ {
			k, sz, err := codec.LenBytes(data[off:])
			if err != nil {
				return nil, err
			}
			off += sz
			c, sz, err := codec.Uint64(data[off:])
			if err != nil {
				return nil, err
			}
			off += sz
			n.keys = append(n.keys, k[:len(k):len(k)])
			n.children = append(n.children, pagefile.PageID(c))
		}
	default:
		return nil, fmt.Errorf("btree: page %d has unknown node type %d", id, data[0])
	}
	return n, nil
}

// readNode pins the page, parses it and releases the pin (the parsed node is
// an independent copy).
func (t *Tree) readNode(id pagefile.PageID) (*node, error) {
	fr, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	defer fr.Release()
	return parseNode(id, fr.Data())
}

// flushNode writes the node back to its page.
func (t *Tree) flushNode(n *node) error {
	fr, err := t.pool.Get(n.id)
	if err != nil {
		return err
	}
	defer fr.Release()
	return writeNode(fr, n, t.pool.PageSize())
}

// newNode allocates a page for a fresh node and assigns its ID.  The caller
// must populate the node's fields and flush it before it is ever read.
func (t *Tree) newNode(leaf bool) (*node, error) {
	fr, err := t.pool.NewPage(pagefile.InvalidPageID)
	if err != nil {
		return nil, err
	}
	fr.Release()
	if t.cow {
		t.fresh[fr.ID()] = struct{}{}
	}
	return &node{id: fr.ID(), leaf: leaf}, nil
}

// --- lookup ------------------------------------------------------------------

// searchKeys returns the index of the first key >= key.
func searchKeys(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child of an internal node should be followed for
// key.
func childIndex(n *node, key []byte) int {
	// keys[i] separates children[i] (keys < keys[i]) from children[i+1]
	// (keys >= keys[i]).
	i := searchKeys(n.keys, key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return i + 1
	}
	return i
}

// pageChild scans a serialized internal node for the child to follow for
// key, without materializing the node.  It mirrors childIndex: keys[i]
// separates children[i] (keys < keys[i]) from children[i+1] (keys >= keys[i]).
func pageChild(id pagefile.PageID, data, key []byte) (pagefile.PageID, error) {
	child, _, err := pageChildWithUpper(id, data, key, nil)
	return child, err
}

// pageChildWithUpper is pageChild extended with the separator that bounds
// the chosen child from above within this node (nil when the child is the
// node's rightmost).  The returned key aliases data.  A fixed-width node is
// searched by stride (stride.search); any other is walked.  A non-nil pi is shown the node
// (see parentImage.visit).
func pageChildWithUpper(id pagefile.PageID, data, key []byte, pi *parentImage) (pagefile.PageID, []byte, error) {
	nKeys, off, err := internalHeader(id, data)
	if err != nil {
		return pagefile.InvalidPageID, nil, err
	}
	s, ok := fitStride(data, off+8, nKeys, false)
	if !ok {
		if pi != nil {
			pi.visitWalked()
		}
		return pageChildWalk(data, off, nKeys, key)
	}
	i := s.child(data, key)
	if pi != nil {
		pi.visit(data, s, i)
	}
	var upper []byte
	if i < s.n {
		upper = s.key(data, i)
	}
	return s.childID(data, i), upper, nil
}

// pageChildWalk is pageChildWithUpper for a node that is not fixed-width:
// it steps through the separators in order, given the count and child 0's
// offset from internalHeader.
func pageChildWalk(data []byte, off int, nKeys uint64, key []byte) (pagefile.PageID, []byte, error) {
	child0, sz, err := codec.Uint64(data[off:])
	if err != nil {
		return pagefile.InvalidPageID, nil, err
	}
	off += sz
	cur := pagefile.PageID(child0)
	matched := false // cur chosen by an equal separator; its upper bound is the next one
	for i := uint64(0); i < nKeys; i++ {
		k, sz, err := codec.LenBytes(data[off:])
		if err != nil {
			return pagefile.InvalidPageID, nil, err
		}
		off += sz
		c, sz, err := codec.Uint64(data[off:])
		if err != nil {
			return pagefile.InvalidPageID, nil, err
		}
		off += sz
		if matched {
			return cur, k, nil
		}
		cmp := bytes.Compare(k, key)
		if cmp > 0 {
			return cur, k, nil
		}
		cur = pagefile.PageID(c)
		if cmp == 0 {
			matched = true
		}
	}
	return cur, nil, nil
}

// pageLeafLookup finds key in the leaf a pinned frame holds, returning the
// value bytes in place (aliasing the page) when present.  A fixed-width leaf
// — known by the frame's layout note, or proved and noted now (leafLayout)
// — is searched by stride in place; any other is walked until the first
// key >= key, which a one-shot lookup prefers to building an offset table.
func pageLeafLookup(fr *buffer.Frame, key []byte) ([]byte, bool, error) {
	s, fixed, w, err := leafLayout(fr)
	if err != nil {
		return nil, false, err
	}
	data := fr.Data()
	if fixed {
		i := s.search(data, key)
		if i < s.n && bytes.Equal(s.key(data, i), key) {
			off := s.off + i*s.width
			return data[off+s.vskip : off+s.width], true, nil
		}
		return nil, false, nil
	}
	for {
		e, ok, err := w.next()
		if err != nil || !ok {
			return nil, false, err
		}
		if cmp := bytes.Compare(data[e.keyOff:e.keyEnd], key); cmp == 0 {
			return data[e.valOff:e.valEnd], true, nil
		} else if cmp > 0 {
			return nil, false, nil
		}
	}
}

// descendToLeaf is the shared serialized-page descent: it returns the leaf's
// frame still pinned and, when the out-params are non-nil, appends the page
// ID of every internal node visited to path and records the exclusive upper
// bound of the leaf's key range in upper (left untouched — nil for a fresh
// slice — when the leaf is rightmost).
func (t *Tree) descendToLeaf(key []byte, path *[]pagefile.PageID, upper *[]byte) (*buffer.Frame, error) {
	return t.descendFrom(t.rootID(), key, path, upper, nil)
}

// descendFrom is descendToLeaf starting from an explicit root, which lets
// snapshot readers (View) descend a frozen tree while the live root moves.
// A nil key descends to the leftmost leaf (every separator compares above
// nil), with upper still tracking the leaf's exclusive bound — the primitive
// behind range scans, which re-descend at the previous leaf's upper bound.
// A non-nil parent is left holding the image of the last internal node on
// the path (Probe's leaf-jump shortcut).
func (t *Tree) descendFrom(root pagefile.PageID, key []byte, path *[]pagefile.PageID, upper *[]byte, parent *parentImage) (*buffer.Frame, error) {
	if parent != nil {
		parent.start()
	}
	id := root
	for depth := 0; ; depth++ {
		if depth == maxDepth {
			return nil, fmt.Errorf("btree: descent from page %d exceeds %d levels (child pointers form a cycle)", root, maxDepth)
		}
		fr, err := t.pool.Get(id)
		if err != nil {
			return nil, err
		}
		data := fr.Data()
		if len(data) == 0 {
			fr.Release()
			return nil, fmt.Errorf("btree: empty page %d", id)
		}
		switch data[0] {
		case nodeLeaf:
			return fr, nil
		case nodeInternal:
			var child pagefile.PageID
			if upper != nil || parent != nil {
				var u []byte
				child, u, err = pageChildWithUpper(id, data, key, parent)
				if u != nil && upper != nil {
					// Copy out: u aliases the page, which is released below.
					*upper = append((*upper)[:0], u...)
				}
			} else {
				child, err = pageChild(id, data, key)
			}
			fr.Release()
			if err != nil {
				return nil, err
			}
			if path != nil {
				*path = append(*path, id)
			}
			id = child
		default:
			typ := data[0]
			fr.Release()
			return nil, fmt.Errorf("btree: page %d has unknown node type %d", id, typ)
		}
	}
}

// Get returns a copy of the value stored under key, or (nil, false) when
// absent: a lookup on a View of the current root (see View.Get).
func (t *Tree) Get(key []byte) ([]byte, bool, error) { return t.View().Get(nil, key) }

// --- insertion ---------------------------------------------------------------

// patchRun applies as many leading items as possible as in-place patches
// against an already-pinned leaf frame, in one forward scan: items are in
// ascending key order and so are the leaf's entries, so the two advance
// together and a run of r replacements over a leaf of n entries costs
// O(n+r) instead of r full scans.  It stops at the first item that is not a
// same-length replacement of a key on this leaf (including items belonging
// to later leaves) and returns how many items it consumed.
func (t *Tree) patchRun(fr *buffer.Frame, items []Item) (int, error) {
	data := fr.Data()
	w, err := walkLeaf(fr.ID(), data)
	if err != nil {
		return 0, err
	}
	consumed := 0
	for consumed < len(items) {
		e, ok, err := w.next()
		if err != nil || !ok {
			return consumed, err
		}
		cmp := bytes.Compare(data[e.keyOff:e.keyEnd], items[consumed].Key)
		if cmp == 0 && int(e.valEnd-e.valOff) == len(items[consumed].Value) {
			fr.Patch(int(e.valOff), items[consumed].Value)
			t.patches.Add(1)
			consumed++
		} else if cmp >= 0 {
			// The item is absent from this leaf (or present with a different
			// value length): not patchable, hand the rest to the caller.
			break
		}
	}
	return consumed, nil
}

// insert writes one key through the split machinery: a root-to-leaf
// rewrite that splits every node it overfills, growing a new root when the
// old one splits.  It is UpsertBatch's fallback for the item that does not
// fit its leaf, and reports whether the key was new.
func (t *Tree) insert(key, value []byte) (bool, error) {
	self, promoted, newChild, inserted, err := t.insertInto(t.rootID(), key, value)
	if err != nil {
		return false, err
	}
	if inserted {
		t.size.Add(1)
	}
	if newChild == pagefile.InvalidPageID {
		if self != t.rootID() {
			t.setRoot(self)
		}
		return inserted, nil
	}
	// Root split: create a new internal root.
	newRoot, err := t.newNode(false)
	if err != nil {
		return false, err
	}
	newRoot.keys = [][]byte{promoted}
	newRoot.children = []pagefile.PageID{self, newChild}
	if err := t.flushNode(newRoot); err != nil {
		return false, err
	}
	t.setRoot(newRoot.id)
	return inserted, nil
}

// insertInto inserts into the subtree rooted at id.  It returns the page the
// subtree's root now lives at (COW mutation may relocate it), the promoted
// separator key and new sibling page when the node split, and whether a new
// key (as opposed to a replacement) was inserted.
func (t *Tree) insertInto(id pagefile.PageID, key, value []byte) (pagefile.PageID, []byte, pagefile.PageID, bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return id, nil, pagefile.InvalidPageID, false, err
	}
	if n.leaf {
		i := searchKeys(n.keys, key)
		inserted := true
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			n.vals[i] = append([]byte(nil), value...)
			inserted = false
		} else {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = append([]byte(nil), key...)
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = append([]byte(nil), value...)
		}
		if nodeSize(n) <= t.pool.PageSize() {
			self, err := t.writeNodeOut(n)
			return self, nil, pagefile.InvalidPageID, inserted, err
		}
		self, promoted, sib, err := t.splitLeaf(n, inserted && i == len(n.keys)-1)
		return self, promoted, sib, inserted, err
	}

	ci := childIndex(n, key)
	oldChild := n.children[ci]
	childSelf, promoted, newChild, inserted, err := t.insertInto(oldChild, key, value)
	if err != nil {
		return id, nil, pagefile.InvalidPageID, false, err
	}
	if childSelf == oldChild && newChild == pagefile.InvalidPageID {
		return id, nil, pagefile.InvalidPageID, inserted, nil
	}
	n.children[ci] = childSelf
	if newChild == pagefile.InvalidPageID {
		self, err := t.writeNodeOut(n)
		return self, nil, pagefile.InvalidPageID, inserted, err
	}
	// Insert the promoted separator into this internal node.
	i := searchKeys(n.keys, promoted)
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = promoted
	n.children = append(n.children, pagefile.InvalidPageID)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if nodeSize(n) <= t.pool.PageSize() {
		self, err := t.writeNodeOut(n)
		return self, nil, pagefile.InvalidPageID, inserted, err
	}
	self, up, sib, err := t.splitInternal(n)
	return self, up, sib, inserted, err
}

// splitLeaf splits an over-full leaf into two, returning the page the left
// half now lives at, the separator key (first key of the new right sibling)
// and the sibling's page ID.  A leaf is split at its key-count midpoint,
// except after an append — appended says the inserted key is the leaf's
// last —, where the left leaf keeps exactly what it held and the new key
// starts the right leaf, as SQLite's balance_quick does.  Ascending
// inserts, a table's primary keys, then leave full leaves behind them
// instead of half-full ones, and the left leaf, unchanged, is not written.
func (t *Tree) splitLeaf(n *node, appended bool) (pagefile.PageID, []byte, pagefile.PageID, error) {
	mid := len(n.keys) / 2
	if appended {
		mid = len(n.keys) - 1
	}
	if mid == 0 {
		mid = 1
	}
	right, err := t.newNode(true)
	if err != nil {
		return n.id, nil, pagefile.InvalidPageID, err
	}
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]

	self := n.id
	if !appended {
		if self, err = t.writeNodeOut(n); err != nil {
			return n.id, nil, pagefile.InvalidPageID, err
		}
	}
	if err := t.flushNode(right); err != nil {
		return self, nil, pagefile.InvalidPageID, err
	}
	sep := append([]byte(nil), right.keys[0]...)
	return self, sep, right.id, nil
}

// splitInternal splits an over-full internal node, promoting the middle key.
// It returns the page the left half now lives at, the promoted key and the
// new right sibling.
func (t *Tree) splitInternal(n *node) (pagefile.PageID, []byte, pagefile.PageID, error) {
	mid := len(n.keys) / 2
	if mid == 0 {
		mid = 1
	}
	promoted := append([]byte(nil), n.keys[mid]...)

	right, err := t.newNode(false)
	if err != nil {
		return n.id, nil, pagefile.InvalidPageID, err
	}
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)

	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]

	if err := t.flushNode(right); err != nil {
		return n.id, nil, pagefile.InvalidPageID, err
	}
	self, err := t.writeNodeOut(n)
	if err != nil {
		return n.id, nil, pagefile.InvalidPageID, err
	}
	return self, promoted, right.id, nil
}

// --- deletion ----------------------------------------------------------------

// freePage disposes of a page the tree no longer references.  A page no
// published snapshot could reach (non-COW trees, and fresh pages in COW
// mode) is recycled immediately: the resident frame (if any) is dropped
// without writeback and the page goes to the pagefile free list.  A
// published page is retired instead and recycled once its epoch drains.
// Either way no node lives at id any more.  After a copy, copyPage has
// moved id's prev entry on; otherwise (a prune, RetireAll) the node ends
// here, and its predecessor's reservation goes with its prev entry.
func (t *Tree) freePage(id pagefile.PageID) error {
	if t.cow {
		if p, ok := t.prev[id]; ok {
			t.pool.File().Release(p)
			delete(t.prev, id)
		}
		if _, ok := t.fresh[id]; ok {
			delete(t.fresh, id)
			return t.pool.FreePage(id)
		}
		t.retire(id)
		return nil
	}
	return t.pool.FreePage(id)
}

// RetireAll disposes of every page of the tree — retired when published,
// recycled immediately when fresh or non-COW — for a tree being replaced
// wholesale (bulk-load swap, offline merge, drop).  The tree must not be
// used afterwards.
func (t *Tree) RetireAll() error {
	pages, err := t.AppendPages(nil)
	if err != nil {
		return err
	}
	for _, id := range pages {
		if err := t.freePage(id); err != nil {
			return err
		}
	}
	return nil
}

// AppendPages appends every page of the tree to dst, level by level from
// the root.  Every leaf sits at the same depth, so it reads the internal
// nodes and, of the leaves, only the leftmost, which ends the leftmost
// descent: the other leaves' IDs come from their parents.
func (t *Tree) AppendPages(dst []pagefile.PageID) ([]pagefile.PageID, error) {
	level := []pagefile.PageID{t.rootID()}
	for depth := 0; ; depth++ {
		if depth == maxDepth {
			return dst, fmt.Errorf("btree: page walk deeper than %d levels (cyclic child pointers?)", maxDepth)
		}
		dst = append(dst, level...)
		var next []pagefile.PageID
		for i, id := range level {
			fr, err := t.pool.Get(id)
			if err != nil {
				return dst, err
			}
			if i == 0 && fr.Data()[0] == nodeLeaf {
				fr.Release()
				return dst, nil
			}
			err = eachChild(id, fr.Data(), func(_ int, c pagefile.PageID) bool {
				next = append(next, c)
				return true
			})
			fr.Release()
			if err != nil {
				return dst, err
			}
		}
		level = next
	}
}

// pruneEmptiedLeafAlongPath dismantles a leaf a delete just emptied, given
// the already-parsed (and already-emptied, unflushed) leaf and the
// root-to-leaf descent path: the leaf is removed from its ancestors and its
// page recycled, without ever writing the dead page image.  An internal node
// that loses its only child is pruned the same way, a root that empties
// entirely is rewritten as an empty leaf, and a root left with a single child
// collapses onto it — so the tree sheds every page the deletes emptied.
func (t *Tree) pruneEmptiedLeafAlongPath(leaf *node, path []pagefile.PageID) error {
	if err := t.freePage(leaf.id); err != nil {
		return err
	}

	// Remove the dead child from its ancestors, pruning any internal node
	// that empties in turn.
	child := leaf.id
	for pi := len(path) - 1; pi >= 0; pi-- {
		parent, err := t.readNode(path[pi])
		if err != nil {
			return err
		}
		ci := -1
		for j, c := range parent.children {
			if c == child {
				ci = j
				break
			}
		}
		if ci < 0 {
			return fmt.Errorf("btree: page %d missing from parent %d during prune", child, path[pi])
		}
		parent.children = append(parent.children[:ci], parent.children[ci+1:]...)
		if len(parent.keys) > 0 {
			// Drop the separator adjacent to the removed child: keys[ci-1]
			// separated it from its left neighbour; for child 0 the old
			// keys[0] bounds the new leftmost subtree from below, which the
			// invariants do not require.
			ki := ci - 1
			if ki < 0 {
				ki = 0
			}
			parent.keys = append(parent.keys[:ki], parent.keys[ki+1:]...)
		}
		if len(parent.children) == 0 {
			// The parent lost its only child.  A non-root parent is pruned in
			// turn; an empty root means the whole tree emptied, so the root
			// is rewritten as an empty leaf (New's initial state) — under COW
			// at a fresh page, leaving the published root untouched.
			if parent.id == t.rootID() {
				root := &node{id: t.rootID(), leaf: true}
				self, err := t.writeNodeOut(root)
				if err != nil {
					return err
				}
				t.setRoot(self)
				return nil
			}
			if err := t.freePage(parent.id); err != nil {
				return err
			}
			child = parent.id
			continue
		}
		oldParent := parent.id
		self, err := t.writeNodeOut(parent)
		if err != nil {
			return err
		}
		if self != oldParent {
			if err := t.replaceChildPointer(path[:pi], oldParent, self); err != nil {
				return err
			}
		}
		break
	}
	return t.collapseRoot()
}

// collapseRoot repeatedly replaces an internal root that has a single child
// with that child, recycling the old root's page (height reduction after
// pruning).
func (t *Tree) collapseRoot() error {
	for {
		n, err := t.readNode(t.rootID())
		if err != nil {
			return err
		}
		if n.leaf || len(n.children) != 1 {
			return nil
		}
		old := t.rootID()
		t.setRoot(n.children[0])
		if err := t.freePage(old); err != nil {
			return err
		}
	}
}

// --- diagnostics -------------------------------------------------------------

// Height returns the number of levels in the tree (1 for a single leaf).
func (t *Tree) Height() (int, error) {
	h := 1
	n, err := t.readNode(t.rootID())
	if err != nil {
		return 0, err
	}
	for !n.leaf {
		h++
		n, err = t.readNode(n.children[0])
		if err != nil {
			return 0, err
		}
	}
	return h, nil
}

// CheckInvariants validates structural invariants: keys sorted within nodes
// and separator keys bounding subtrees, which together order the keys across
// leaves.  It is used by tests and returns a descriptive error on the first
// violation.
func (t *Tree) CheckInvariants() error {
	_, err := t.checkSubtree(t.rootID(), nil, nil)
	return err
}

// checkSubtree checks the subtree at id and returns its height; every leaf
// must sit at the same depth (AppendPages relies on it).
func (t *Tree) checkSubtree(id pagefile.PageID, lower, upper []byte) (int, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, err
	}
	for i := 1; i < len(n.keys); i++ {
		if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
			return 0, fmt.Errorf("btree: page %d keys out of order at %d", id, i)
		}
	}
	for _, k := range n.keys {
		if lower != nil && bytes.Compare(k, lower) < 0 {
			return 0, fmt.Errorf("btree: page %d key below lower bound", id)
		}
		if upper != nil && bytes.Compare(k, upper) >= 0 {
			return 0, fmt.Errorf("btree: page %d key above upper bound", id)
		}
	}
	if n.leaf {
		return 1, nil
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, fmt.Errorf("btree: page %d has %d keys but %d children", id, len(n.keys), len(n.children))
	}
	height := 0
	for i, child := range n.children {
		lo := lower
		hi := upper
		if i > 0 {
			lo = n.keys[i-1]
		}
		if i < len(n.keys) {
			hi = n.keys[i]
		}
		h, err := t.checkSubtree(child, lo, hi)
		if err != nil {
			return 0, err
		}
		if i > 0 && h != height {
			return 0, fmt.Errorf("btree: page %d has subtrees of heights %d and %d", id, height, h)
		}
		height = h
	}
	return height + 1, nil
}
