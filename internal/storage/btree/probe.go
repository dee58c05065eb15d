package btree

// Probe is a point-lookup cursor that exploits key locality: it keeps an
// image of the leaf the previous lookup landed on (and that leaf's exclusive
// upper bound, captured during the descent), and answers keys that land on
// the same leaf with a search of the image.
//
// The query algorithms resolve candidate scores in ascending document order
// (the merge order of ID- and chunk-ordered lists), so consecutive
// Score-table probes walk the key space left to right and mostly land on
// the leaf the previous one did.  A fixed-width leaf of 8-byte keys is
// searched by interpolation (stride.search64), which over the Score table's
// dense document IDs lands on or next to the answer wherever the key lies,
// so the probe keeps no position hint between lookups.  Leaves carry no
// sibling pointers, so a key outside the cached leaf means a leaf jump.
//
// A leaf jump is served by the probe's image of the leaf's parent when it
// can be: the full descent that loaded the leaf also copied the last
// internal node on its path, with that node's stride, the key range
// [lo, hi) it covers and the child it chose.  A jump whose key lies inside
// that range searches the parent image and fetches only the leaf; any other
// jump — and every jump when a node on the path is not fixed-width — takes
// the full root descent, which replaces the parent image.  Either way the
// leaf reached is the one a descent from the root reaches.
//
// Contract.  Both images are the probe's own copies of serialized nodes (see
// leafImage), taken while the page is pinned for the length of one load: a
// probe holds no pin between calls, so nothing it does can outlive a query
// or starve a small pool.  The leaf is loaded through its frame's layout
// note (leafImage.load): the first reader to load a fixed-width leaf
// since its bytes last changed proves its width, and every later leaf jump
// to it — by any probe — copies it out by the noted stride.  The note lives
// in the frame, so it dies with the bytes: a write (MarkDirty, Patch) clears
// it and a frame reused for another page starts without one.  The slice Get
// returns aliases the leaf image and is valid until the next Get or Reset on
// the same probe.  The images and the bound buffers are reused across loads
// and across Reset, so a probe that is kept (the index layer keeps them in
// its pooled per-query scratch) allocates nothing per lookup and nothing per
// leaf jump.
//
// Every probe is bound to a View: it descends the view's frozen root and
// stays consistent for the view's lifetime.
import (
	"bytes"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// Probe caches an image of the most recently visited leaf and of its
// parent.  The zero value is unbound: Reset binds it to a view.
type Probe struct {
	t    *Tree
	root pagefile.PageID // the bound view's root
	leaf leafImage
	// loaded reports that leaf holds a leaf of the bound tree.
	loaded bool
	// upper is the exclusive upper bound of the cached leaf's key range;
	// empty when the leaf is the tree's rightmost (separators are never
	// empty).
	upper []byte
	// rootLeaf records that the cached leaf is the root itself, which covers
	// every key (e.g. a table no update has split yet).
	rootLeaf bool
	parent   parentImage
}

// parentImage is a reader-owned copy of the fixed-width internal node above
// the cached leaf: its bytes up to the end of the last entry, its stride,
// the key range [lo, hi) the node covers — an empty bound is unbounded, since
// separators are never empty — and the child index the last search chose,
// which bounds the range of the next node a descent shows it.
// A descent fills it in (descendFrom's parent out-param) through start,
// visit and visitWalked.
type parentImage struct {
	data   []byte
	s      stride
	lo, hi []byte
	chosen int
	ok     bool
	// bounded is false for the rest of a descent once a node on its path was
	// walked: only a stride search yields the lower bound the range needs.
	bounded bool
}

// covers reports whether key routes through this node.
func (pi *parentImage) covers(key []byte) bool {
	return pi.ok && bytes.Compare(key, pi.lo) >= 0 && (len(pi.hi) == 0 || bytes.Compare(key, pi.hi) < 0)
}

// start readies the image for a descent from the root, whose range is
// unbounded.
func (pi *parentImage) start() {
	pi.ok, pi.bounded = false, true
	pi.lo, pi.hi = pi.lo[:0], pi.hi[:0]
}

// visit takes a fixed-width internal node on the descent's path, copied
// while its page is pinned, and the child i the descent follows from it.
// The node's range is the range of the child the previous image chose.
func (pi *parentImage) visit(data []byte, s stride, i int) {
	if !pi.bounded {
		return
	}
	if j := pi.chosen; pi.ok {
		if j > 0 {
			pi.lo = append(pi.lo[:0], pi.s.key(pi.data, j-1)...)
		}
		if j < pi.s.n {
			pi.hi = append(pi.hi[:0], pi.s.key(pi.data, j)...)
		}
	}
	pi.data = append(pi.data[:0], data[:s.end()]...)
	pi.s, pi.chosen, pi.ok = s, i, true
}

// visitWalked takes an internal node that is not fixed-width: no node at or
// below it gets an image.
func (pi *parentImage) visitWalked() { pi.ok, pi.bounded = false, false }

// NewProbe returns a probe over the frozen view.
func (v View) NewProbe() *Probe {
	p := &Probe{}
	p.Reset(v)
	return p
}

// Reset rebinds the probe to the frozen view, dropping the cached leaf and
// parent but keeping their buffers.
func (p *Probe) Reset(v View) {
	p.t, p.root = v.t, v.root
	p.loaded = false
	p.parent.ok = false
}

// Get returns the value stored under key, or (nil, false) when absent.  The
// returned slice aliases the probe's leaf image; callers must not retain it
// across further calls on the probe.
func (p *Probe) Get(key []byte) ([]byte, bool, error) {
	if p.loaded {
		// A key strictly inside the image's key span provably lands on this
		// leaf; one at or beyond either end does only if the leaf's range
		// (first key inclusive, upper bound exclusive) still covers it.  A
		// root leaf covers everything, so even misses resolve here.
		i, n := p.leaf.search(key), p.leaf.len()
		switch {
		case i < n && bytes.Equal(p.leaf.key(i), key):
			return p.leaf.val(i), true, nil
		case p.rootLeaf, i > 0 && (i < n || len(p.upper) == 0 || bytes.Compare(key, p.upper) < 0):
			return nil, false, nil
		}
	}
	// Leaf jump: fetch the leaf, and copy it out with its bound.
	p.loaded = false
	fr, err := p.fetchLeaf(key)
	if err != nil {
		return nil, false, err
	}
	err = p.leaf.load(fr)
	fr.Release()
	if err != nil {
		return nil, false, err
	}
	p.loaded = true
	i := p.leaf.search(key)
	if i < p.leaf.len() && bytes.Equal(p.leaf.key(i), key) {
		return p.leaf.val(i), true, nil
	}
	return nil, false, nil
}

// fetchLeaf returns the leaf key routes to, pinned, with p.upper and
// p.rootLeaf set for it: through the parent image when that covers key,
// else by a full descent.
func (p *Probe) fetchLeaf(key []byte) (*buffer.Frame, error) {
	if pi := &p.parent; pi.covers(key) {
		i := pi.s.child(pi.data, key)
		fr, err := p.t.pool.Get(pi.s.childID(pi.data, i))
		if err != nil {
			return nil, err
		}
		// A parent's children are leaves in any well-formed tree; anything
		// else is left to the full descent to route or refuse.
		if data := fr.Data(); len(data) > 0 && data[0] == nodeLeaf {
			if i < pi.s.n {
				p.upper = append(p.upper[:0], pi.s.key(pi.data, i)...)
			} else {
				p.upper = append(p.upper[:0], pi.hi...)
			}
			p.rootLeaf = false
			return fr, nil
		}
		fr.Release()
	}
	p.upper = p.upper[:0]
	fr, err := p.t.descendFrom(p.root, key, nil, &p.upper, &p.parent)
	if err != nil {
		return nil, err
	}
	p.rootLeaf = fr.ID() == p.root
	return fr, nil
}
