package btree

// Probe is a point-lookup cursor that exploits key locality: it keeps an
// image of the leaf the previous lookup landed on (and that leaf's exclusive
// upper bound, captured during the descent) plus a finger at the position
// that lookup answered, and answers keys that land on the same leaf with a
// search of the image started at the finger, re-descending only when the key
// jumps outside the covered range.
//
// The query algorithms resolve candidate scores in ascending document order
// (the merge order of ID- and chunk-ordered lists), so consecutive
// Score-table probes walk the key space left to right: on a fixed-width leaf
// the search gallops forward from the finger, costing O(log gap) rather than
// a bisection of the whole leaf, and a key behind the finger is bisected as
// usual.  The cursor never follows leaf sibling pointers — COW mutation
// leaves them stale — so a leaf-boundary crossing costs one root descent
// over cached internal pages.
//
// Contract.  The image is the probe's own copy of the serialized leaf (see
// leafImage), taken while the page is pinned for the length of one load: a
// probe holds no pin between calls, so nothing it does can outlive a query
// or starve a small pool.  The slice Get returns aliases that image and is
// valid until the next Get or Reset on the same probe.  The image and the
// bound buffer are reused across loads and across Reset, so a probe that is
// kept (the index layer keeps them in its pooled per-query scratch)
// allocates nothing per lookup and nothing per leaf jump.
//
// A probe from Tree.NewProbe reads the live root each descent and must not
// be used across tree mutations; one bound to a View descends the frozen
// root and stays consistent for the view's lifetime.
import (
	"bytes"

	"svrdb/internal/storage/pagefile"
)

// Probe caches an image of the most recently visited leaf.  The zero value
// is unbound: Reset binds it to a view.
type Probe struct {
	t *Tree
	// root pins the descent root; InvalidPageID means live (re-read the
	// tree's current root on every descent).
	root pagefile.PageID
	leaf leafImage
	// loaded reports that leaf holds a leaf of the bound tree.
	loaded bool
	// finger is the image position the previous lookup answered, where the
	// next search starts.
	finger int
	// upper is the exclusive upper bound of the cached leaf's key range;
	// empty when the leaf is the tree's rightmost (separators are never
	// empty).
	upper []byte
	// rootLeaf records that the cached leaf is the root itself, which covers
	// every key (e.g. a table no update has split yet).
	rootLeaf bool
}

// NewProbe returns a probe over the tree's live state.
func (t *Tree) NewProbe() *Probe { return &Probe{t: t, root: pagefile.InvalidPageID} }

// NewProbe returns a probe over the frozen view.
func (v View) NewProbe() *Probe {
	p := &Probe{}
	p.Reset(v)
	return p
}

// Reset rebinds the probe to the frozen view, dropping the cached leaf but
// keeping its buffers.
func (p *Probe) Reset(v View) {
	p.t, p.root = v.t, v.root
	p.loaded = false
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
		i, n := p.leaf.search(key, p.finger), p.leaf.len()
		p.finger = i
		switch {
		case i < n && bytes.Equal(p.leaf.key(i), key):
			return p.leaf.val(i), true, nil
		case p.rootLeaf, i > 0 && (i < n || len(p.upper) == 0 || bytes.Compare(key, p.upper) < 0):
			return nil, false, nil
		}
	}
	// Restart: descend, and copy the leaf out with its bound.
	root := p.root
	if root == pagefile.InvalidPageID {
		root = p.t.rootID()
	}
	p.loaded = false
	p.upper = p.upper[:0]
	fr, err := p.t.descendFrom(root, key, nil, &p.upper)
	if err != nil {
		return nil, false, err
	}
	p.rootLeaf = fr.ID() == root
	err = p.leaf.load(fr.ID(), fr.Data())
	fr.Release()
	if err != nil {
		return nil, false, err
	}
	p.loaded = true
	i := p.leaf.search(key, 0)
	p.finger = i
	if i < p.leaf.len() && bytes.Equal(p.leaf.key(i), key) {
		return p.leaf.val(i), true, nil
	}
	return nil, false, nil
}
