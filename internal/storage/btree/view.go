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

// Visitor receives key/value pairs during a scan.  Returning false stops the
// scan early.  The slices are valid only until the visitor returns (they
// alias the scan cursor's leaf image); copy what must outlive it.
type Visitor func(key, value []byte) bool

// AscendRange visits keys in [start, end) in ascending order: a loop over a
// Cursor (see View.Cursor for the bounds).  visit may use the tree freely,
// since the cursor pins no page while it runs.
func (v View) AscendRange(start, end []byte, visit Visitor) error {
	c := v.Cursor(start, end)
	defer c.Close()
	for c.More() {
		if !visit(c.Next()) {
			return nil
		}
	}
	return c.Err()
}

// Ascend visits every key in ascending order.
func (v View) Ascend(visit Visitor) error { return v.AscendRange(nil, nil, visit) }

// AscendPrefix visits every key beginning with prefix in ascending order.
func (v View) AscendPrefix(prefix []byte, visit Visitor) error {
	return v.AscendRange(prefix, PrefixEnd(prefix), visit)
}

// Cursor is the tree's one range reader, a pull iterator over the keys of a
// View in [start, end), ascending: open (View.Cursor), More and Next until
// More is false, Err, Close.  It reads a copy of one leaf at a time — its
// leaf image — so it pins no page between calls and the caller may use the
// tree freely while it is open; when the image is spent it re-descends from
// the view's root at the leaf's exclusive upper bound.  Cursors are pooled,
// so a reader that opens one per query reuses the page-sized image instead
// of allocating it; a cursor must not be used after Close.
type Cursor struct {
	v       View
	end     []byte // exclusive end of the range, when bounded
	bounded bool
	leaf    leafImage
	i       int // the next entry of leaf
	// key is the next descent's key — the start, then each leaf's upper
	// bound — and upper the buffer a descent fills with the new bound.
	key, upper []byte
	last       bool // the loaded leaf is the range's last one
	err        error
}

var cursorPool = sync.Pool{New: func() any { return new(Cursor) }}

// Cursor opens a reader over the keys in [start, end).  A nil start begins
// at the smallest key; a nil end runs to the largest.  Both are copied, so
// the caller may reuse them.  The first More descends.
func (v View) Cursor(start, end []byte) *Cursor {
	c := cursorPool.Get().(*Cursor)
	c.v = v
	c.key = append(c.key[:0], start...)
	c.end, c.bounded = append(c.end[:0], end...), end != nil
	c.leaf.reset()
	c.i, c.last, c.err = 0, false, nil
	return c
}

// More reports whether Next has an entry to return, loading the next leaf
// when the image is spent.  It returns false at the end of the range and on
// an error, which Err then reports.
func (c *Cursor) More() bool {
	for c.i >= c.leaf.len() {
		if c.last || c.err != nil {
			return false
		}
		c.err = c.descend()
	}
	return !c.bounded || bytes.Compare(c.leaf.key(c.i), c.end) < 0
}

// Next returns the entry More reported and moves past it.  It must follow a
// More that returned true.  The slices alias the leaf image and are valid
// until the next More or Close.
func (c *Cursor) Next() (key, value []byte) {
	key, value = c.leaf.key(c.i), c.leaf.val(c.i)
	c.i++
	return key, value
}

// Err reports the error that ended the walk, if any.
func (c *Cursor) Err() error { return c.err }

// Close returns the cursor to the pool.
func (c *Cursor) Close() {
	c.v = View{}
	cursorPool.Put(c)
}

// descend loads the leaf holding the descent key into the image and
// positions the walk at the first entry not below it.
func (c *Cursor) descend() error {
	c.upper = c.upper[:0]
	fr, err := c.v.t.descendFrom(c.v.root, c.key, nil, &c.upper, nil)
	if err != nil {
		return err
	}
	err = c.leaf.load(fr)
	fr.Release()
	if err != nil {
		return err
	}
	c.i = c.leaf.search(c.key)
	// Separator keys are never empty, so an untouched bound means the
	// descent stayed rightmost at every level: this is the last leaf.  Past
	// a bound at or beyond the end no key is in range either.
	c.last = len(c.upper) == 0 || c.bounded && bytes.Compare(c.upper, c.end) >= 0
	// The next descent is at this leaf's exclusive upper bound; equal
	// separators route right, so it lands exactly on the successor leaf.
	c.key, c.upper = c.upper, c.key
	return nil
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
