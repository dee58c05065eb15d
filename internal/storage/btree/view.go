package btree

import (
	"bytes"
	"sync"

	"svrdb/internal/storage/pagefile"
)

// View is a frozen read-only image of the tree: the root page and key count
// captured at one instant.  On a COW tree a View taken at publication time
// stays internally consistent no matter what the writer does afterwards —
// every page reachable from the captured root is immutable until the view's
// epoch drains.  A View scan re-descends from the captured root at each
// leaf's exclusive upper bound, which internal-page caching keeps cheap.
type View struct {
	t    *Tree
	root pagefile.PageID
	size int64
}

// View captures the tree's current root and size.  On a COW tree, call it
// only on a sealed publication point; on a non-COW tree it is just a scan
// handle (no isolation against the serialized writer).
func (t *Tree) View() View {
	return View{t: t, root: t.rootID(), size: t.size.Load()}
}

// Root returns the captured root page.
func (v View) Root() pagefile.PageID { return v.root }

// Len reports the number of keys at capture time.
func (v View) Len() int { return int(v.size) }

// Get appends the value stored under key to dst and returns the result, or
// (dst, false) when absent.  The value is copied out of the page before it is
// released, so a caller that passes a buffer with room for it — a fixed-width
// table's stack array — looks a key up without allocating.
func (v View) Get(dst, key []byte) ([]byte, bool, error) {
	fr, err := v.t.descendFrom(v.root, key, nil, nil, nil)
	if err != nil {
		return dst, false, err
	}
	val, ok, err := pageLeafLookup(fr, key)
	if ok {
		dst = append(dst, val...)
	}
	fr.Release()
	return dst, ok, err
}

// scanner is the scratch of one range scan: the image of the leaf being
// visited and the two bound buffers the scan alternates between (the bound
// of the leaf just finished is the descent key of the next).  Scanners are
// pooled so that the query path's short-list and cursor scans reuse their
// buffers instead of allocating a page-sized image per scan.
type scanner struct {
	leaf       leafImage
	key, upper []byte
}

var scannerPool = sync.Pool{New: func() any { return new(scanner) }}

// Visitor receives key/value pairs during a scan.  Returning false stops the
// scan early.  The slices are valid only until the visitor returns (ascending
// scans pass views into a reusable leaf image); copy what must outlive it.
type Visitor func(key, value []byte) bool

// AscendRange visits keys in [start, end) in ascending order.  A nil start
// begins at the smallest key; a nil end scans to the largest.  The key and
// value slices passed to visit alias the scan's leaf image — a copy, so no
// page is pinned while visit runs and visit may use the tree freely — and
// are valid only until visit returns.
func (v View) AscendRange(start, end []byte, visit Visitor) error {
	sc := scannerPool.Get().(*scanner)
	defer scannerPool.Put(sc)
	key := start // nil descends to the leftmost leaf
	for {
		sc.upper = sc.upper[:0]
		fr, err := v.t.descendFrom(v.root, key, nil, &sc.upper, nil)
		if err != nil {
			return err
		}
		err = sc.leaf.load(fr)
		fr.Release()
		if err != nil {
			return err
		}
		i := 0
		if key != nil {
			i = sc.leaf.search(key)
		}
		for ; i < sc.leaf.len(); i++ {
			k := sc.leaf.key(i)
			if end != nil && bytes.Compare(k, end) >= 0 {
				return nil
			}
			if !visit(k, sc.leaf.val(i)) {
				return nil
			}
		}
		// Separator keys are never empty, so an untouched buffer means the
		// descent stayed rightmost at every level: this was the last leaf.
		if len(sc.upper) == 0 {
			return nil
		}
		if end != nil && bytes.Compare(sc.upper, end) >= 0 {
			return nil
		}
		// Re-descend at this leaf's exclusive upper bound; equal separators
		// route right, so the descent lands exactly on the successor leaf.
		sc.key, sc.upper = sc.upper, sc.key
		key = sc.key
	}
}

// Ascend visits every key in ascending order.
func (v View) Ascend(visit Visitor) error { return v.AscendRange(nil, nil, visit) }

// AscendPrefix visits every key beginning with prefix in ascending order.
func (v View) AscendPrefix(prefix []byte, visit Visitor) error {
	return v.AscendRange(prefix, PrefixEnd(prefix), visit)
}

// PrefixEnd returns the smallest key greater than every key with the given
// prefix — the exclusive end of a prefix range — or nil when no such key
// exists (a prefix of all 0xFF bytes).
func PrefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
