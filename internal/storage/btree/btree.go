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

// Tree is a B+-tree.  It is not safe for concurrent mutation; the engine
// serializes index updates, as the paper's single update stream does.
// Concurrent readers (Get, Has, Probe, cursors, range scans) are safe with
// each other, and the mutable tree metadata — the root page, the key count
// and the patch counter — is held in atomics so that metadata reads
// (Len, Patches, a reader starting its descent) race-cleanly against a
// serialized writer instead of tearing.  Readers racing a concurrent writer
// over node *contents* still require external coordination (the engine's
// index-level RW lock provides it).
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
}

// EnableCOW switches the tree to copy-on-write mutation.  retire receives
// every page a mutation supersedes (typically epoch.Manager.Retire, which
// recycles it once concurrent readers drain).  Pages the tree allocates
// after this call are private until Seal marks them published.
func (t *Tree) EnableCOW(retire func(pagefile.PageID)) {
	t.cow = true
	t.retire = retire
	t.fresh = map[pagefile.PageID]struct{}{}
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
	fr, err := t.pool.NewPage()
	if err != nil {
		return pagefile.InvalidPageID, err
	}
	n.id = fr.ID()
	err = writeNode(fr, n, t.pool.PageSize())
	fr.Release()
	if err != nil {
		return pagefile.InvalidPageID, err
	}
	t.fresh[n.id] = struct{}{}
	if err := t.freePage(old); err != nil {
		return pagefile.InvalidPageID, err
	}
	return n.id, nil
}

// clonePage copies the pinned page into a fresh page and returns the new
// frame pinned (the caller releases it).  Used by the COW patch path, which
// edits the raw page image without parsing it.
func (t *Tree) clonePage(fr *buffer.Frame) (*buffer.Frame, error) {
	nfr, err := t.pool.NewPage()
	if err != nil {
		return nil, err
	}
	copy(nfr.Data(), fr.Data())
	nfr.MarkDirty()
	t.fresh[nfr.ID()] = struct{}{}
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

// pageFindChildOffset scans a serialized internal node for the 8-byte child
// pointer equal to child and returns its byte offset within the page.
func pageFindChildOffset(id pagefile.PageID, data []byte, child pagefile.PageID) (int, error) {
	if len(data) == 0 || data[0] != nodeInternal {
		return 0, fmt.Errorf("btree: page %d is not an internal node", id)
	}
	off := 1
	nKeys64, sz, err := codec.Uvarint(data[off:])
	if err != nil {
		return 0, fmt.Errorf("btree: page %d: %w", id, err)
	}
	off += sz
	c0, _, err := codec.Uint64(data[off:])
	if err != nil {
		return 0, err
	}
	if pagefile.PageID(c0) == child {
		return off, nil
	}
	off += 8
	for i := 0; i < int(nKeys64); i++ {
		_, sz, err := codec.LenBytes(data[off:])
		if err != nil {
			return 0, err
		}
		off += sz
		c, _, err := codec.Uint64(data[off:])
		if err != nil {
			return 0, err
		}
		if pagefile.PageID(c) == child {
			return off, nil
		}
		off += 8
	}
	return 0, fmt.Errorf("btree: page %d has no child pointer to %d", id, child)
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
	next pagefile.PageID
	prev pagefile.PageID

	// internal fields: len(children) == len(keys)+1, keys[i] is the smallest
	// key reachable through children[i+1].
	children []pagefile.PageID
}

// New creates an empty tree with a single leaf root.
func New(pool *buffer.Pool) (*Tree, error) {
	fr, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	root := &node{id: fr.ID(), leaf: true, next: pagefile.InvalidPageID, prev: pagefile.InvalidPageID}
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

// Layout (leaf):
//
//	[1 type][varint nKeys][8 next][8 prev] { [len key][key][len val][val] }*
//
// Layout (internal):
//
//	[1 type][varint nKeys][8 child0] { [len key][key][8 child] }*
func serializeNode(n *node) []byte {
	out := make([]byte, 0, 256)
	if n.leaf {
		out = append(out, nodeLeaf)
		out = codec.PutUvarint(out, uint64(len(n.keys)))
		out = codec.PutUint64(out, uint64(n.next))
		out = codec.PutUint64(out, uint64(n.prev))
		for i := range n.keys {
			out = codec.PutLenBytes(out, n.keys[i])
			out = codec.PutLenBytes(out, n.vals[i])
		}
		return out
	}
	out = append(out, nodeInternal)
	out = codec.PutUvarint(out, uint64(len(n.keys)))
	out = codec.PutUint64(out, uint64(n.children[0]))
	for i := range n.keys {
		out = codec.PutLenBytes(out, n.keys[i])
		out = codec.PutUint64(out, uint64(n.children[i+1]))
	}
	return out
}

func (t *Tree) nodeSize(n *node) int { return len(serializeNode(n)) }

func writeNode(fr *buffer.Frame, n *node, pageSize int) error {
	data := serializeNode(n)
	if len(data) > pageSize {
		return fmt.Errorf("btree: serialized node %d bytes exceeds page size %d", len(data), pageSize)
	}
	buf := fr.Data()
	copy(buf, data)
	for i := len(data); i < pageSize; i++ {
		buf[i] = 0
	}
	fr.MarkDirty()
	return nil
}

func parseNode(id pagefile.PageID, data []byte) (*node, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("btree: empty page %d", id)
	}
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
	switch data[0] {
	case nodeLeaf:
		n.leaf = true
		next, sz, err := codec.Uint64(data[off:])
		if err != nil {
			return nil, err
		}
		off += sz
		prev, sz, err := codec.Uint64(data[off:])
		if err != nil {
			return nil, err
		}
		off += sz
		n.next = pagefile.PageID(next)
		n.prev = pagefile.PageID(prev)
		n.keys = make([][]byte, 0, nKeys)
		n.vals = make([][]byte, 0, nKeys)
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
			n.keys = append(n.keys, append([]byte(nil), k...))
			n.vals = append(n.vals, append([]byte(nil), v...))
		}
	case nodeInternal:
		child0, sz, err := codec.Uint64(data[off:])
		if err != nil {
			return nil, err
		}
		off += sz
		n.keys = make([][]byte, 0, nKeys)
		n.children = make([]pagefile.PageID, 0, nKeys+1)
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
			n.keys = append(n.keys, append([]byte(nil), k...))
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
	fr, err := t.pool.NewPage()
	if err != nil {
		return nil, err
	}
	fr.Release()
	if t.cow {
		t.fresh[fr.ID()] = struct{}{}
	}
	return &node{id: fr.ID(), leaf: leaf, next: pagefile.InvalidPageID, prev: pagefile.InvalidPageID}, nil
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
	child, _, err := pageChildWithUpper(id, data, key)
	return child, err
}

// pageChildWithUpper is pageChild extended with the separator that bounds
// the chosen child from above within this node (nil when the child is the
// node's rightmost).  The returned key aliases data.
func pageChildWithUpper(id pagefile.PageID, data, key []byte) (pagefile.PageID, []byte, error) {
	off := 1
	nKeys64, sz, err := codec.Uvarint(data[off:])
	if err != nil {
		return pagefile.InvalidPageID, nil, fmt.Errorf("btree: page %d: %w", id, err)
	}
	off += sz
	child0, sz, err := codec.Uint64(data[off:])
	if err != nil {
		return pagefile.InvalidPageID, nil, err
	}
	off += sz
	cur := pagefile.PageID(child0)
	matched := false // cur chosen by an equal separator; its upper bound is the next one
	for i := 0; i < int(nKeys64); i++ {
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

// pageLeafLookup scans a serialized leaf for key, returning the value bytes
// in place (aliasing data) when present.
func pageLeafLookup(id pagefile.PageID, data, key []byte) ([]byte, bool, error) {
	valOff, valLen, found, err := pageLeafFindValue(id, data, key)
	if err != nil || !found {
		return nil, false, err
	}
	return data[valOff : valOff+valLen], true, nil
}

// pageLeafFindValue scans a serialized leaf for key and returns the offset
// and length of its value bytes within data — the patch fast path needs the
// location so it can overwrite the value in the pinned page; pageLeafLookup
// wraps it for callers that want the contents.  A one-shot lookup stops at
// the first key >= key, so it walks the entries in order instead of building
// the offset table a leafImage binary-searches.
func pageLeafFindValue(id pagefile.PageID, data, key []byte) (valOff, valLen int, found bool, err error) {
	w, err := walkLeaf(id, data)
	if err != nil {
		return 0, 0, false, err
	}
	for {
		e, ok, err := w.next()
		if err != nil || !ok {
			return 0, 0, false, err
		}
		if cmp := bytes.Compare(data[e.keyOff:e.keyEnd], key); cmp == 0 {
			return int(e.valOff), int(e.valEnd - e.valOff), true, nil
		} else if cmp > 0 {
			return 0, 0, false, nil
		}
	}
}

// findLeafFrame descends to the leaf that would hold key, scanning the
// serialized internal nodes directly from their pinned pages, and returns
// the leaf's frame still pinned (the caller releases it).  Unlike the
// parse-every-node descent it allocates nothing, which matters because every
// Score-table and ListScore-table probe on the query hot path starts here.
func (t *Tree) findLeafFrame(key []byte) (*buffer.Frame, error) {
	return t.descendToLeaf(key, nil, nil)
}

// descendToLeaf is the shared serialized-page descent: it returns the leaf's
// frame still pinned and, when the out-params are non-nil, appends the page
// ID of every internal node visited to path and records the exclusive upper
// bound of the leaf's key range in upper (left untouched — nil for a fresh
// slice — when the leaf is rightmost).
func (t *Tree) descendToLeaf(key []byte, path *[]pagefile.PageID, upper *[]byte) (*buffer.Frame, error) {
	return t.descendFrom(t.rootID(), key, path, upper)
}

// descendFrom is descendToLeaf starting from an explicit root, which lets
// snapshot readers (View) descend a frozen tree while the live root moves.
// A nil key descends to the leftmost leaf (every separator compares above
// nil), with upper still tracking the leaf's exclusive bound — the primitive
// behind chain-free range scans, which re-descend at the previous leaf's
// upper bound instead of following sibling pointers that copy-on-write
// mutation leaves stale.
func (t *Tree) descendFrom(root pagefile.PageID, key []byte, path *[]pagefile.PageID, upper *[]byte) (*buffer.Frame, error) {
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
			if upper != nil {
				var u []byte
				child, u, err = pageChildWithUpper(id, data, key)
				if u != nil {
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

// Get returns the value stored under key, or (nil, false) when absent.  The
// returned value is an independent copy.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	v, ok, err := t.lookup(key, true)
	return v, ok, err
}

// Has reports whether key is present.
func (t *Tree) Has(key []byte) (bool, error) {
	_, ok, err := t.lookup(key, false)
	return ok, err
}

// lookup probes for key without materializing any node.  When copyVal is set
// the value is copied out of the pinned page before release.
func (t *Tree) lookup(key []byte, copyVal bool) ([]byte, bool, error) {
	fr, err := t.findLeafFrame(key)
	if err != nil {
		return nil, false, err
	}
	v, ok, err := pageLeafLookup(fr.ID(), fr.Data(), key)
	if ok && copyVal {
		v = append([]byte(nil), v...)
	} else if !copyVal {
		v = nil
	}
	fr.Release()
	return v, ok, err
}

// --- insertion ---------------------------------------------------------------

// Put inserts key with value, replacing any existing value.
func (t *Tree) Put(key, value []byte) error {
	_, err := t.Upsert(key, value)
	return err
}

// Patch overwrites the value stored under key in place when the existing
// value has identical length, and reports whether it did.  The write happens
// directly in the pinned leaf page — no node parse, no reserialize, no
// structural change — which is why it is the fast path for every fixed-width
// table write.  (false, nil) means the key is absent or the lengths differ;
// the caller falls back to Upsert.
//
// In COW mode a published leaf is not written where it is: the page is
// cloned, the clone patched, and the one ancestor pointer rewired — still
// no node parse, so the fixed-width fast path survives snapshot isolation.
func (t *Tree) Patch(key, value []byte) (bool, error) {
	if len(key) == 0 {
		return false, errors.New("btree: empty key")
	}
	return t.tryPatch(key, value)
}

// tryPatch is the shared patch probe of Patch and Upsert.
func (t *Tree) tryPatch(key, value []byte) (bool, error) {
	if !t.cow {
		fr, err := t.findLeafFrame(key)
		if err != nil {
			return false, err
		}
		ok, err := t.patchInFrame(fr, key, value)
		fr.Release()
		return ok, err
	}
	var path []pagefile.PageID
	fr, err := t.descendToLeaf(key, &path, nil)
	if err != nil {
		return false, err
	}
	if t.mutableInPlace(fr.ID()) {
		ok, err := t.patchInFrame(fr, key, value)
		fr.Release()
		return ok, err
	}
	// Published leaf: check patchability first so a miss costs nothing, then
	// clone, patch the clone and rewire the parent pointer.
	valOff, valLen, found, err := pageLeafFindValue(fr.ID(), fr.Data(), key)
	if err != nil || !found || valLen != len(value) {
		fr.Release()
		return false, err
	}
	old := fr.ID()
	nfr, err := t.clonePage(fr)
	fr.Release()
	if err != nil {
		return false, err
	}
	nfr.Patch(valOff, value)
	nid := nfr.ID()
	nfr.Release()
	if err := t.freePage(old); err != nil {
		return false, err
	}
	if err := t.replaceChildPointer(path, old, nid); err != nil {
		return false, err
	}
	t.patches.Add(1)
	return true, nil
}

// patchInFrame applies the in-place patch against an already-pinned leaf
// frame.  The caller retains the pin.
func (t *Tree) patchInFrame(fr *buffer.Frame, key, value []byte) (bool, error) {
	valOff, valLen, found, err := pageLeafFindValue(fr.ID(), fr.Data(), key)
	if err != nil {
		return false, err
	}
	if !found || valLen != len(value) {
		return false, nil
	}
	fr.Patch(valOff, value)
	t.patches.Add(1)
	return true, nil
}

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

// Upsert is Put that also reports whether a new key was inserted (false
// means an existing value was replaced).  Callers that need to maintain an
// entry count use it to avoid a separate Has probe per write.
//
// A same-length replacement is absorbed by the Patch fast path before the
// general insert machinery runs: one descent over pinned pages and an
// in-place value overwrite, no node parse or reserialize.  A write that
// misses the patch (new key, changed length) pays that probe descent on top
// of insertInto's own — a deliberate trade: the probe allocates nothing and
// is far cheaper than the leaf parse and rewrite the miss path performs
// anyway, while the hit path (every fixed-width table update, the paper's
// dominant workload) skips the rewrite entirely.
func (t *Tree) Upsert(key, value []byte) (bool, error) {
	if len(key) == 0 {
		return false, errors.New("btree: empty key")
	}
	if len(key)+len(value)+16 > t.maxEntrySize() {
		return false, fmt.Errorf("%w: key %d + value %d bytes (max %d)", ErrEntryTooLarge, len(key), len(value), t.maxEntrySize())
	}
	if !t.disablePatch {
		ok, err := t.tryPatch(key, value)
		if err != nil {
			return false, err
		}
		if ok {
			return false, nil
		}
	}
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
		if t.nodeSize(n) <= t.pool.PageSize() {
			self, err := t.writeNodeOut(n)
			return self, nil, pagefile.InvalidPageID, inserted, err
		}
		self, promoted, sib, err := t.splitLeaf(n)
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
	if t.nodeSize(n) <= t.pool.PageSize() {
		self, err := t.writeNodeOut(n)
		return self, nil, pagefile.InvalidPageID, inserted, err
	}
	self, up, sib, err := t.splitInternal(n)
	return self, up, sib, inserted, err
}

// splitLeaf splits an over-full leaf into two, returning the page the left
// half now lives at, the separator key (first key of the new right sibling)
// and the sibling's page ID.
func (t *Tree) splitLeaf(n *node) (pagefile.PageID, []byte, pagefile.PageID, error) {
	mid := len(n.keys) / 2
	if mid == 0 {
		mid = 1
	}
	right, err := t.newNode(true)
	if err != nil {
		return n.id, nil, pagefile.InvalidPageID, err
	}
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	right.next = n.next

	// Fix the old next leaf's prev pointer.  COW trees do not maintain the
	// sibling chain — copy-on-write relocation would leave neighbours'
	// pointers stale anyway — and every COW read path re-descends instead of
	// chain-walking, so the stale pointers are never followed.
	if !t.cow && n.next != pagefile.InvalidPageID {
		oldNext, err := t.readNode(n.next)
		if err != nil {
			return n.id, nil, pagefile.InvalidPageID, err
		}
		oldNext.prev = right.id
		if err := t.flushNode(oldNext); err != nil {
			return n.id, nil, pagefile.InvalidPageID, err
		}
	}

	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.next = right.id

	self, err := t.writeNodeOut(n)
	if err != nil {
		return n.id, nil, pagefile.InvalidPageID, err
	}
	right.prev = self
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

// Delete removes key if present and reports whether it was found.  Leaves are
// not rebalanced, but a leaf that empties completely is unlinked from the
// sibling chain, removed from its ancestors and its page recycled (see the
// package comment).
func (t *Tree) Delete(key []byte) (bool, error) {
	var path []pagefile.PageID
	fr, err := t.descendToLeaf(key, &path, nil)
	if err != nil {
		return false, err
	}
	leaf, err := parseNode(fr.ID(), fr.Data())
	fr.Release()
	if err != nil {
		return false, err
	}
	i := searchKeys(leaf.keys, key)
	if i >= len(leaf.keys) || !bytes.Equal(leaf.keys[i], key) {
		return false, nil
	}
	leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
	leaf.vals = append(leaf.vals[:i], leaf.vals[i+1:]...)
	t.size.Add(-1)
	if len(leaf.keys) == 0 && leaf.id != t.rootID() {
		// The page is about to be recycled; writing the dead image first
		// would be wasted I/O.
		return true, t.pruneEmptiedLeafAlongPath(leaf, path)
	}
	old := leaf.id
	self, err := t.writeNodeOut(leaf)
	if err != nil {
		return true, err
	}
	if self != old {
		return true, t.replaceChildPointer(path, old, self)
	}
	return true, nil
}

// freePage disposes of a page the tree no longer references.  A page no
// published snapshot could reach (non-COW trees, and fresh pages in COW
// mode) is recycled immediately: the resident frame (if any) is dropped
// without writeback and the page goes to the pagefile free list.  A
// published page is retired instead and recycled once its epoch drains.
func (t *Tree) freePage(id pagefile.PageID) error {
	if t.cow {
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
// wholesale (bulk-load swap, offline merge).  The tree must not be used
// afterwards.
func (t *Tree) RetireAll() error {
	return t.retireSubtree(t.rootID())
}

func (t *Tree) retireSubtree(id pagefile.PageID) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if !n.leaf {
		for _, c := range n.children {
			if err := t.retireSubtree(c); err != nil {
				return err
			}
		}
	}
	return t.freePage(id)
}

// pruneEmptiedLeafAlongPath dismantles a leaf a delete just emptied, given
// the already-parsed (and already-emptied, unflushed) leaf and the
// root-to-leaf descent path: the leaf is unlinked from the sibling chain
// (non-COW trees only — COW read paths never follow the chain), removed from
// the ancestor chain and its page recycled, without ever writing the dead
// page image.  An internal node that loses its only child is pruned the same way,
// a root that empties entirely is rewritten as an empty leaf, and a root
// left with a single child collapses onto it — so the tree sheds every page
// the deletes emptied.
func (t *Tree) pruneEmptiedLeafAlongPath(leaf *node, path []pagefile.PageID) error {
	// Unlink from the doubly linked sibling chain.
	if !t.cow {
		if leaf.prev != pagefile.InvalidPageID {
			prev, err := t.readNode(leaf.prev)
			if err != nil {
				return err
			}
			prev.next = leaf.next
			if err := t.flushNode(prev); err != nil {
				return err
			}
		}
		if leaf.next != pagefile.InvalidPageID {
			next, err := t.readNode(leaf.next)
			if err != nil {
				return err
			}
			next.prev = leaf.prev
			if err := t.flushNode(next); err != nil {
				return err
			}
		}
	}
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
				root := &node{id: t.rootID(), leaf: true, next: pagefile.InvalidPageID, prev: pagefile.InvalidPageID}
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

// --- scans -------------------------------------------------------------------

// Visitor receives key/value pairs during a scan.  Returning false stops the
// scan early.  The slices are valid only until the visitor returns (ascending
// scans pass views into a reusable leaf image); copy what must outlive it.
type Visitor func(key, value []byte) bool

// AscendRange visits keys in [start, end) in ascending order.  A nil start
// begins at the smallest key; a nil end scans to the largest.  The scan is
// chain-free — it re-descends at each leaf's upper bound instead of
// following sibling pointers — so it is valid on COW trees, whose sibling
// chain goes stale as pages relocate.
func (t *Tree) AscendRange(start, end []byte, visit Visitor) error {
	return t.View().AscendRange(start, end, visit)
}

// Ascend visits every key in ascending order.
func (t *Tree) Ascend(visit Visitor) error { return t.AscendRange(nil, nil, visit) }

// AscendPrefix visits every key beginning with prefix in ascending order.
func (t *Tree) AscendPrefix(prefix []byte, visit Visitor) error {
	return t.AscendRange(prefix, prefixEnd(prefix), visit)
}

// prefixEnd returns the smallest key greater than every key with the given
// prefix, or nil when no such key exists (prefix of all 0xFF bytes).
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

func (t *Tree) leftmostLeaf() (*node, error) {
	n, err := t.readNode(t.rootID())
	if err != nil {
		return nil, err
	}
	for !n.leaf {
		n, err = t.readNode(n.children[0])
		if err != nil {
			return nil, err
		}
	}
	return n, nil
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

// CheckInvariants validates structural invariants: keys sorted within nodes,
// separator keys bounding subtrees, and leaf sibling links consistent.  It is
// used by tests and returns a descriptive error on the first violation.
func (t *Tree) CheckInvariants() error {
	_, _, err := t.checkSubtree(t.rootID(), nil, nil)
	if err != nil {
		return err
	}
	if t.cow {
		// COW mutation abandons the sibling chain (reads never follow it), so
		// only the structural invariants apply.
		return nil
	}
	return t.checkLeafChain()
}

func (t *Tree) checkSubtree(id pagefile.PageID, lower, upper []byte) (minKey, maxKey []byte, err error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i < len(n.keys); i++ {
		if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
			return nil, nil, fmt.Errorf("btree: page %d keys out of order at %d", id, i)
		}
	}
	for _, k := range n.keys {
		if lower != nil && bytes.Compare(k, lower) < 0 {
			return nil, nil, fmt.Errorf("btree: page %d key below lower bound", id)
		}
		if upper != nil && bytes.Compare(k, upper) >= 0 {
			return nil, nil, fmt.Errorf("btree: page %d key above upper bound", id)
		}
	}
	if n.leaf {
		if len(n.keys) == 0 {
			return lower, lower, nil
		}
		return n.keys[0], n.keys[len(n.keys)-1], nil
	}
	if len(n.children) != len(n.keys)+1 {
		return nil, nil, fmt.Errorf("btree: page %d has %d keys but %d children", id, len(n.keys), len(n.children))
	}
	for i, child := range n.children {
		lo := lower
		hi := upper
		if i > 0 {
			lo = n.keys[i-1]
		}
		if i < len(n.keys) {
			hi = n.keys[i]
		}
		if _, _, err := t.checkSubtree(child, lo, hi); err != nil {
			return nil, nil, err
		}
	}
	return lower, upper, nil
}

func (t *Tree) checkLeafChain() error {
	leaf, err := t.leftmostLeaf()
	if err != nil {
		return err
	}
	var prev []byte
	prevID := pagefile.InvalidPageID
	for {
		if leaf.prev != prevID {
			return fmt.Errorf("btree: leaf %d prev pointer %d, want %d", leaf.id, leaf.prev, prevID)
		}
		for _, k := range leaf.keys {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				return fmt.Errorf("btree: leaf chain keys out of order at page %d", leaf.id)
			}
			prev = append(prev[:0], k...)
		}
		if leaf.next == pagefile.InvalidPageID {
			return nil
		}
		prevID = leaf.id
		leaf, err = t.readNode(leaf.next)
		if err != nil {
			return err
		}
	}
}
