package btree

// This file implements the write-side bulk paths of the tree:
//
//   - BulkLoad builds a tree from an already-sorted run of entries by
//     packing leaves left to right and stacking internal levels on top,
//     instead of paying a root-to-leaf descent (and a full leaf
//     parse/serialize cycle) per leaf the way UpsertBatch does.  Nodes
//     are written straight through to the page file, so a bulk load of a
//     structure much larger than the buffer pool does not evict the pool's
//     working set.
//
//   - UpsertBatch and DeleteBatch are the only way to mutate a tree: a
//     single-key write is a one-item batch.  The keys are sorted first, so
//     runs of keys that land in the same leaf share one descent and one
//     parse/serialize cycle — the write-side analogue of the read path's
//     block-at-a-time protocol.
//
// A batch leaves the tree holding exactly what applying its items one at a
// time, in order, would; only the physical access pattern differs.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// Item is one key/value pair of a batched write.
type Item struct {
	Key   []byte
	Value []byte
}

// MaxBulkFill and minBulkFill bound the node fill a caller may ask BulkLoad
// for: just under full, so that the first few post-build inserts amend
// leaves in place instead of immediately splitting every one of them, and
// no sparser than a quarter page.
const (
	MaxBulkFill = 0.9
	minBulkFill = 0.25
)

// ErrUnsorted is returned by BulkLoad when the input run is not in strictly
// ascending key order.
var ErrUnsorted = errors.New("btree: bulk-load input not in strictly ascending key order")

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// entrySize is the serialized size of one leaf entry.
func entrySize(key, value []byte) int {
	return uvarintLen(uint64(len(key))) + len(key) + uvarintLen(uint64(len(value))) + len(value)
}

// leafHeaderSize is the serialized size of a leaf node's fixed fields.
func leafHeaderSize(nKeys int) int { return 1 + uvarintLen(uint64(nKeys)) }

// internalHeaderSize is the serialized size of an internal node's fixed
// fields (type, key count, child0).
func internalHeaderSize(nKeys int) int { return 1 + uvarintLen(uint64(nKeys)) + 8 }

// internalEntrySize is the serialized size of one internal separator entry.
func internalEntrySize(key []byte) int {
	return uvarintLen(uint64(len(key))) + len(key) + 8
}

// BulkLoad builds a new tree over pool from items, which must be in strictly
// ascending key order.  Leaves are packed left to right to the node fill
// target fill, clamped to [minBulkFill, MaxBulkFill], and internal levels
// are stacked bottom-up; every node is written exactly once, directly to the
// page file, so the pool's resident set is untouched.  An empty run produces
// an empty tree.  Tables that absorb a steady stream of updates trade
// density for cheaper leaf rewrites: every update that misses the patch
// path reserializes its whole leaf, so leaf size is the per-update write
// cost.
func BulkLoad(pool *buffer.Pool, items []Item, fill float64) (*Tree, error) {
	if fill > MaxBulkFill {
		fill = MaxBulkFill
	}
	if fill < minBulkFill {
		fill = minBulkFill
	}
	maxEntry := pool.PageSize() / 4
	for i := range items {
		if len(items[i].Key) == 0 {
			return nil, errors.New("btree: empty key")
		}
		if len(items[i].Key)+len(items[i].Value)+16 > maxEntry {
			return nil, fmt.Errorf("%w: key %d + value %d bytes (max %d)",
				ErrEntryTooLarge, len(items[i].Key), len(items[i].Value), maxEntry)
		}
		if i > 0 && bytes.Compare(items[i-1].Key, items[i].Key) >= 0 {
			return nil, fmt.Errorf("%w: key %d <= key %d", ErrUnsorted, i, i-1)
		}
	}
	if len(items) == 0 {
		return New(pool)
	}

	target := int(float64(pool.PageSize()) * fill)

	// Pack the leaf level: each group of consecutive items becomes one leaf.
	type group struct {
		lo, hi int // item (or child) index range [lo, hi)
	}
	var leaves []group
	size := leafHeaderSize(0)
	lo := 0
	for i := range items {
		es := entrySize(items[i].Key, items[i].Value)
		if i > lo && size+es > target {
			leaves = append(leaves, group{lo, i})
			lo = i
			size = leafHeaderSize(0)
		}
		size += es
	}
	leaves = append(leaves, group{lo, len(items)})

	// Pack internal levels bottom-up.  levelGroups[0] is the leaf level;
	// each higher level groups the children of the one below.
	levelGroups := [][]group{leaves}
	childKeys := make([][]byte, len(leaves)) // min key per node of the current level
	for i, g := range leaves {
		childKeys[i] = items[g.lo].Key
	}
	for len(levelGroups[len(levelGroups)-1]) > 1 {
		children := levelGroups[len(levelGroups)-1]
		var ups []group
		size = internalHeaderSize(0)
		lo = 0
		for i := range children {
			es := internalEntrySize(childKeys[i])
			if i > lo && size+es > target {
				ups = append(ups, group{lo, i})
				lo = i
				size = internalHeaderSize(0)
			}
			size += es
		}
		ups = append(ups, group{lo, len(children)})
		// Avoid a trailing single-child internal node when a neighbour can
		// spare a child (a lone child is structurally legal but wasteful).
		if n := len(ups); n > 1 && ups[n-1].hi-ups[n-1].lo == 1 && ups[n-2].hi-ups[n-2].lo > 2 {
			ups[n-2].hi--
			ups[n-1].lo--
		}
		nextKeys := make([][]byte, len(ups))
		for i, g := range ups {
			nextKeys[i] = childKeys[g.lo]
		}
		levelGroups = append(levelGroups, ups)
		childKeys = nextKeys
	}

	// Allocate the pages level by level, leaves first, one at a time: a
	// tree bulk-loaded to replace another (an index merge's Score table)
	// takes the free pages the tree it replaces leaves scattered behind its
	// copy-on-write copies, where one contiguous run would grow the file.
	levelIDs := make([][]pagefile.PageID, len(levelGroups))
	for li, lvl := range levelGroups {
		ids := make([]pagefile.PageID, len(lvl))
		for i := range lvl {
			id, err := pool.File().Allocate(pagefile.InvalidPageID)
			if err != nil {
				return nil, err
			}
			ids[i] = id
		}
		levelIDs[li] = ids
	}

	// Serialize and write every node straight through to the file.
	page := make([]byte, pool.PageSize())
	writeOut := func(n *node) error {
		if err := putNode(page, n); err != nil {
			return err
		}
		return pool.WriteThrough(n.id, page)
	}
	for i, g := range leaves {
		n := &node{id: levelIDs[0][i], leaf: true}
		for j := g.lo; j < g.hi; j++ {
			n.keys = append(n.keys, items[j].Key)
			n.vals = append(n.vals, items[j].Value)
		}
		if err := writeOut(n); err != nil {
			return nil, err
		}
	}
	// minKey per node of the level below, rebuilt as levels are written.
	minKeys := make([][]byte, len(leaves))
	for i, g := range leaves {
		minKeys[i] = items[g.lo].Key
	}
	for li := 1; li < len(levelGroups); li++ {
		lvl := levelGroups[li]
		nextMin := make([][]byte, len(lvl))
		for i, g := range lvl {
			n := &node{id: levelIDs[li][i]}
			n.children = append(n.children, levelIDs[li-1][g.lo])
			for j := g.lo + 1; j < g.hi; j++ {
				n.keys = append(n.keys, minKeys[j])
				n.children = append(n.children, levelIDs[li-1][j])
			}
			if err := writeOut(n); err != nil {
				return nil, err
			}
			nextMin[i] = minKeys[g.lo]
		}
		minKeys = nextMin
	}

	top := levelIDs[len(levelIDs)-1]
	t := &Tree{pool: pool}
	t.setRoot(top[0])
	t.size.Store(int64(len(items)))
	return t, nil
}

// UpsertBatch applies a group of upserts, sorting the items by key so that
// runs of keys belonging to the same leaf share one descent and one leaf
// rewrite.  Duplicate keys within the batch collapse to the last occurrence,
// as if the items were applied one at a time in order.  It reports how many
// keys were newly inserted (as opposed to replaced) and reorders items in
// place.
func (t *Tree) UpsertBatch(items []Item) (int, error) {
	maxEntry := t.maxEntrySize()
	for i := range items {
		if len(items[i].Key) == 0 {
			return 0, errors.New("btree: empty key")
		}
		if len(items[i].Key)+len(items[i].Value)+16 > maxEntry {
			return 0, fmt.Errorf("%w: key %d + value %d bytes (max %d)",
				ErrEntryTooLarge, len(items[i].Key), len(items[i].Value), maxEntry)
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return bytes.Compare(items[i].Key, items[j].Key) < 0 })
	// Keep only the last occurrence of each key.
	w := 0
	for i := 0; i < len(items); i++ {
		if i+1 < len(items) && bytes.Equal(items[i].Key, items[i+1].Key) {
			continue
		}
		items[w] = items[i]
		w++
	}
	items = items[:w]

	inserted := 0
	pageSize := t.pool.PageSize()
	i := 0
	for i < len(items) {
		var path []pagefile.PageID
		var upper []byte
		fr, err := t.descendToLeaf(items[i].Key, &path, &upper)
		if err != nil {
			return inserted, err
		}
		// Under COW a published leaf is promoted to a private clone before
		// the batch touches it (upsert semantics guarantee at least one write
		// to this leaf, so the copy is never wasted); the patch and rewrite
		// phases below then mutate the clone in place.
		if t.cow && !t.mutableInPlace(fr.ID()) {
			old := fr.ID()
			nfr, cerr := t.clonePage(fr)
			fr.Release()
			if cerr != nil {
				return inserted, cerr
			}
			if err := t.freePage(old); err != nil {
				nfr.Release()
				return inserted, err
			}
			if err := t.replaceChildPointer(path, old, nfr.ID()); err != nil {
				nfr.Release()
				return inserted, err
			}
			fr = nfr
		}
		// Patch phase: a run of same-length replacements is applied directly
		// to the pinned page in one forward scan over the serialized leaf
		// (the sorted items and the leaf entries advance together), no parse
		// or reserialize.  Replace-only batches (fixed-width table flushes)
		// never leave this phase.
		if !t.disablePatch {
			n, perr := t.patchRun(fr, items[i:])
			if perr != nil {
				fr.Release()
				return inserted, perr
			}
			i += n
		}
		if i >= len(items) || (upper != nil && bytes.Compare(items[i].Key, upper) >= 0) {
			fr.Release()
			continue
		}
		// Mixed run: materialize the leaf (any patches above are already in
		// the page image) and fall through to the rewrite path.
		leaf, err := parseNode(fr.ID(), fr.Data())
		fr.Release()
		if err != nil {
			return inserted, err
		}
		size := nodeSize(leaf)
		modified := false
		for i < len(items) && (upper == nil || bytes.Compare(items[i].Key, upper) < 0) {
			it := items[i]
			j := searchKeys(leaf.keys, it.Key)
			if j < len(leaf.keys) && bytes.Equal(leaf.keys[j], it.Key) {
				newSize := size - len(leaf.vals[j]) + uvarintLen(uint64(len(it.Value))) - uvarintLen(uint64(len(leaf.vals[j]))) + len(it.Value)
				if newSize > pageSize {
					break // replacement overflows: fall back to insert's split path
				}
				leaf.vals[j] = append([]byte(nil), it.Value...)
				size = newSize
			} else {
				newSize := size + entrySize(it.Key, it.Value) + leafHeaderSize(len(leaf.keys)+1) - leafHeaderSize(len(leaf.keys))
				if newSize > pageSize {
					break // leaf full: fall back to insert's split path
				}
				leaf.keys = append(leaf.keys, nil)
				copy(leaf.keys[j+1:], leaf.keys[j:])
				leaf.keys[j] = append([]byte(nil), it.Key...)
				leaf.vals = append(leaf.vals, nil)
				copy(leaf.vals[j+1:], leaf.vals[j:])
				leaf.vals[j] = append([]byte(nil), it.Value...)
				size = newSize
				inserted++
				t.size.Add(1)
			}
			modified = true
			i++
		}
		if modified {
			if err := t.flushNode(leaf); err != nil {
				return inserted, err
			}
		}
		if i < len(items) && (upper == nil || bytes.Compare(items[i].Key, upper) < 0) {
			// The next item still belongs to this leaf but did not fit:
			// let insert split it, then resume batching.
			ins, err := t.insert(items[i].Key, items[i].Value)
			if err != nil {
				return inserted, err
			}
			if ins {
				inserted++
			}
			i++
		}
	}
	return inserted, nil
}

// DeleteBatch removes a group of keys, sorting them so that keys sharing a
// leaf share one descent and one leaf rewrite.  A leaf the batch empties is
// pruned: removed from its ancestors and its page recycled (see the package
// comment).  It reports how many keys were present and removed, and
// reorders keys in place.
func (t *Tree) DeleteBatch(keys [][]byte) (int, error) {
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	removed := 0
	i := 0
	for i < len(keys) {
		var path []pagefile.PageID
		var upper []byte
		fr, err := t.descendToLeaf(keys[i], &path, &upper)
		if err != nil {
			return removed, err
		}
		leaf, err := parseNode(fr.ID(), fr.Data())
		fr.Release()
		if err != nil {
			return removed, err
		}
		modified := false
		for i < len(keys) && (upper == nil || bytes.Compare(keys[i], upper) < 0) {
			j := searchKeys(leaf.keys, keys[i])
			if j < len(leaf.keys) && bytes.Equal(leaf.keys[j], keys[i]) {
				leaf.keys = append(leaf.keys[:j], leaf.keys[j+1:]...)
				leaf.vals = append(leaf.vals[:j], leaf.vals[j+1:]...)
				removed++
				t.size.Add(-1)
				modified = true
			}
			i++
		}
		if modified {
			if len(leaf.keys) == 0 && leaf.id != t.rootID() {
				// The run emptied the leaf: skip the dead-image flush and
				// dismantle it instead.
				if err := t.pruneEmptiedLeafAlongPath(leaf, path); err != nil {
					return removed, err
				}
			} else {
				old := leaf.id
				self, err := t.writeNodeOut(leaf)
				if err != nil {
					return removed, err
				}
				if self != old {
					if err := t.replaceChildPointer(path, old, self); err != nil {
						return removed, err
					}
				}
			}
		}
	}
	return removed, nil
}

// LeafStats descends the whole tree and reports the number of leaves and
// their total serialized payload, letting tests assert the fill factor of
// bulk-built trees.
func (t *Tree) LeafStats() (leaves int, usedBytes int, err error) {
	var visit func(id pagefile.PageID) error
	visit = func(id pagefile.PageID) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.leaf {
			leaves++
			usedBytes += nodeSize(n)
			return nil
		}
		for _, c := range n.children {
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(t.rootID()); err != nil {
		return 0, 0, err
	}
	return leaves, usedBytes, nil
}
