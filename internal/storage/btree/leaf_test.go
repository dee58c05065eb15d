package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"svrdb/internal/codec"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// --- parse-based reference ---------------------------------------------------
//
// The read path used to answer probes and range scans from parseNode'd
// nodes.  That implementation lives on here, as the reference the in-place
// readers are compared against: it parses every node on the way down and
// routes with childIndex, so it shares neither the descent's child search
// nor any of the leaf decoding with them.

// refDescend returns a parsed copy of the leaf that holds key and the leaf's
// exclusive upper bound (nil when it is the rightmost).  A nil key descends
// to the leftmost leaf.
func refDescend(v View, key []byte) (*node, []byte, error) {
	var upper []byte
	id := v.root
	for depth := 0; depth < maxDepth; depth++ {
		n, err := v.t.readNode(id)
		if err != nil {
			return nil, nil, err
		}
		if n.leaf {
			return n, upper, nil
		}
		ci := childIndex(n, key)
		if ci < len(n.keys) {
			upper = n.keys[ci]
		}
		id = n.children[ci]
	}
	return nil, nil, fmt.Errorf("reference descent from page %d exceeds %d levels", v.root, maxDepth)
}

// refGet resolves key through a parsed copy of its leaf.
func refGet(v View, key []byte) ([]byte, bool, error) {
	leaf, _, err := refDescend(v, key)
	if err != nil {
		return nil, false, err
	}
	if i := searchKeys(leaf.keys, key); i < len(leaf.keys) && bytes.Equal(leaf.keys[i], key) {
		return leaf.vals[i], true, nil
	}
	return nil, false, nil
}

// refAscendRange is the chain-free range scan over parsed leaves.
func refAscendRange(v View, start, end []byte, visit Visitor) error {
	key := start
	for {
		leaf, upper, err := refDescend(v, key)
		if err != nil {
			return err
		}
		i := 0
		if key != nil {
			i = searchKeys(leaf.keys, key)
		}
		for ; i < len(leaf.keys); i++ {
			if end != nil && bytes.Compare(leaf.keys[i], end) >= 0 {
				return nil
			}
			if !visit(leaf.keys[i], leaf.vals[i]) {
				return nil
			}
		}
		if len(upper) == 0 || (end != nil && bytes.Compare(upper, end) >= 0) {
			return nil
		}
		key = upper
	}
}

// --- equivalence property ----------------------------------------------------

type kv struct{ k, v string }

func collectRange(t *testing.T, scan func(start, end []byte, visit Visitor) error, start, end []byte, limit int) []kv {
	t.Helper()
	var out []kv
	err := scan(start, end, func(k, v []byte) bool {
		out = append(out, kv{string(k), string(v)})
		return len(out) != limit
	})
	if err != nil {
		t.Fatalf("scan [%q, %q): %v", start, end, err)
	}
	return out
}

// checkReaders drives every in-place reader of the view — a probe in
// ascending, descending and random key order, one probe reused across
// Reset, and range scans over random bounds — and requires each answer to
// equal View.Get's and the parse-based reference's.  stored is the view's
// expected contents; probeKeys adds keys that are absent.
func checkReaders(t *testing.T, v View, stored map[string]string, probeKeys [][]byte, rng *rand.Rand) {
	t.Helper()
	keys := append([][]byte(nil), probeKeys...)
	for k := range stored {
		keys = append(keys, []byte(k), []byte(k+"\x00"), []byte(k[:len(k)-1]))
	}
	keys = append(keys, []byte{0}, bytes.Repeat([]byte{0xFF}, 40)) // below and beyond every leaf
	check := func(p *Probe, key []byte) {
		t.Helper()
		pv, pok, perr := p.Get(key)
		gv, gok, gerr := v.Get(nil, key)
		rv, rok, rerr := refGet(v, key)
		if perr != nil || gerr != nil || rerr != nil {
			t.Fatalf("Get(%q) errors: probe %v, view %v, reference %v", key, perr, gerr, rerr)
		}
		if pok != gok || pok != rok || !bytes.Equal(pv, gv) || !bytes.Equal(pv, rv) {
			t.Fatalf("Get(%q): probe (%q,%v), view (%q,%v), reference (%q,%v)", key, pv, pok, gv, gok, rv, rok)
		}
		// View.Get appends to the caller's buffer and leaves what it held.
		if av, _, _ := v.Get([]byte("held"), key); string(av) != "held"+string(gv) {
			t.Fatalf("Get(%q) into a buffer holding %q = %q, want %q", key, "held", av, "held"+string(gv))
		}
		if want, has := stored[string(key)]; has != pok || (has && want != string(pv)) {
			t.Fatalf("Get(%q) = (%q,%v), stored (%q,%v)", key, pv, pok, want, has)
		}
	}
	reused := &Probe{}
	for _, order := range []string{"ascending", "descending", "random"} {
		switch order {
		case "ascending":
			sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		case "descending":
			sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) > 0 })
		default:
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		fresh := v.NewProbe()
		reused.Reset(v)
		for _, key := range keys {
			check(fresh, key)
			check(reused, key)
		}
	}

	scan := func(start, end []byte, limit int) {
		t.Helper()
		got := collectRange(t, v.AscendRange, start, end, limit)
		want := collectRange(t, func(s, e []byte, visit Visitor) error { return refAscendRange(v, s, e, visit) }, start, end, limit)
		if len(got) != len(want) {
			t.Fatalf("AscendRange [%q, %q) limit %d visited %d entries, reference %d", start, end, limit, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AscendRange [%q, %q)[%d] = %q, reference %q", start, end, i, got[i], want[i])
			}
			if stored[got[i].k] != got[i].v {
				t.Fatalf("AscendRange visited (%q,%q), stored %q", got[i].k, got[i].v, stored[got[i].k])
			}
		}
		if start == nil && end == nil && limit == 0 && len(got) != len(stored) {
			t.Fatalf("full scan visited %d entries, stored %d", len(got), len(stored))
		}
	}
	scan(nil, nil, 0)
	for i := 0; i < 40; i++ {
		var start, end []byte
		if rng.Intn(5) > 0 {
			start = keys[rng.Intn(len(keys))]
		}
		if rng.Intn(5) > 0 {
			end = keys[rng.Intn(len(keys))]
		}
		scan(start, end, rng.Intn(3)*rng.Intn(50))
	}
}

// wideEntry builds keys and values of 128 bytes and more, so that their
// length prefixes are two-byte varints.
func wideEntry(rng *rand.Rand, i int) (key, val []byte) {
	key = []byte(fmt.Sprintf("wide:%06d:", i))
	key = append(key, bytes.Repeat([]byte{byte('a' + i%26)}, 120+rng.Intn(80))...)
	val = bytes.Repeat([]byte{byte('A' + i%26)}, 128+rng.Intn(400))
	return key, val
}

// scoreKey and scoreRow shape an entry like a Score-table row: a document ID
// as 8 order-preserving bytes, and a 9-byte value.
func scoreKey(doc int) []byte { return codec.PutOrderedUint64(nil, uint64(doc)) }

func scoreRow(doc, gen int) []byte {
	return append(codec.PutFloat64(nil, float64(doc)+float64(gen)/8), byte(gen&1))
}

// forEachNode visits every node of the view with its page pinned; data is
// valid only during the call.
func forEachNode(t *testing.T, v View, visit func(id pagefile.PageID, data []byte)) {
	t.Helper()
	var walk func(id pagefile.PageID)
	walk = func(id pagefile.PageID) {
		fr, err := v.t.pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		visit(id, fr.Data())
		fr.Release()
		n, err := v.t.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(v.root)
}

// checkSearch is the property of the image's one search routine: for every
// key it returns the index plain bisection of the image's keys returns.
func checkSearch(t *testing.T, m *leafImage, keys [][]byte) {
	t.Helper()
	n := m.len()
	for _, key := range keys {
		want := sort.Search(n, func(i int) bool { return bytes.Compare(m.key(i), key) >= 0 })
		if got := m.search(key); got != want {
			t.Fatalf("search(%x) = %d over %d entries (fixed width %d), bisection %d", key, got, n, m.fixed.width, want)
		}
	}
}

// TestLeafReadersMatchReference is the equivalence property of the in-place
// read path over the tree shapes that stress it differently.
func TestLeafReadersMatchReference(t *testing.T) {
	absent := [][]byte{[]byte("a"), []byte("key:"), []byte("key:000100x"), []byte("wide:"), []byte("zzz")}

	t.Run("empty", func(t *testing.T) {
		tree, pool := newTestTree(t, 512, 64)
		checkReaders(t, tree.View(), map[string]string{}, absent, rand.New(rand.NewSource(1)))
		if err := pool.CheckPins(); err != nil {
			t.Error(err)
		}
	})

	t.Run("root leaf", func(t *testing.T) {
		tree, pool := newTestTree(t, 512, 64)
		stored := map[string]string{}
		for i := 0; i < 6; i++ {
			stored[string(cowKey(i*3))] = string(cowVal(i, 0))
			if err := put(tree, cowKey(i*3), cowVal(i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if h, _ := tree.Height(); h != 1 {
			t.Fatalf("height %d, want a single root leaf", h)
		}
		checkReaders(t, tree.View(), stored, absent, rand.New(rand.NewSource(2)))
		if err := pool.CheckPins(); err != nil {
			t.Error(err)
		}
	})

	t.Run("random inserts and deletes", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			tree, pool := newTestTree(t, 512, 256)
			stored := map[string]string{}
			for i := 0; i < 1200; i++ {
				k := cowKey(rng.Intn(3000))
				val := cowVal(i, rng.Intn(10))
				if rng.Intn(3) == 0 {
					val = val[:rng.Intn(len(val))] // varying lengths, down to empty values
				}
				stored[string(k)] = string(val)
				if err := put(tree, k, val); err != nil {
					t.Fatal(err)
				}
			}
			for k := range stored {
				if rng.Intn(4) == 0 {
					delete(stored, k)
					if ok, err := del(tree, []byte(k)); err != nil || !ok {
						t.Fatalf("Delete(%q) = %v, %v", k, ok, err)
					}
				}
			}
			checkReaders(t, tree.View(), stored, absent, rng)
			if err := pool.CheckPins(); err != nil {
				t.Error(err)
			}
		}
	})

	t.Run("two-byte length prefixes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		tree, pool := newTestTree(t, 4096, 256)
		stored := map[string]string{}
		for i := 0; i < 300; i++ {
			k, v := wideEntry(rng, rng.Intn(2000))
			stored[string(k)] = string(v)
			if err := put(tree, k, v); err != nil {
				t.Fatal(err)
			}
		}
		if h, _ := tree.Height(); h < 2 {
			t.Fatalf("height %d, want a multi-level tree", h)
		}
		checkReaders(t, tree.View(), stored, absent, rng)
		if err := pool.CheckPins(); err != nil {
			t.Error(err)
		}
	})

	t.Run("bulk loaded", func(t *testing.T) {
		pool := buffer.MustNew(pagefile.MustNewMem(512), 256)
		items := bulkItems(1500, 9)
		tree, err := BulkLoad(pool, items, 0.55)
		if err != nil {
			t.Fatal(err)
		}
		stored := map[string]string{}
		for _, it := range items {
			stored[string(it.Key)] = string(it.Value)
		}
		checkReaders(t, tree.View(), stored, absent, rand.New(rand.NewSource(4)))
		if err := pool.CheckPins(); err != nil {
			t.Error(err)
		}
	})

	// Score-table-shaped trees — 8-byte ordered keys, 9-byte rows — are
	// fixed-width at every node, so every reader takes the stride path with
	// integer key compares; one leaf is given a wider value, which sends it
	// (and only it) back to the walker.
	t.Run("fixed width", func(t *testing.T) {
		for _, pageSize := range []int{512, 4096} {
			rng := rand.New(rand.NewSource(int64(pageSize)))
			pool := buffer.MustNew(pagefile.MustNewMem(pageSize), 512)
			const docs = 4000
			var items []Item
			for doc := 0; doc < docs; doc += 2 {
				items = append(items, Item{Key: scoreKey(doc), Value: scoreRow(doc, 0)})
			}
			tree, err := BulkLoad(pool, items, 0.55)
			if err != nil {
				t.Fatal(err)
			}
			stored := map[string]string{}
			for _, it := range items {
				stored[string(it.Key)] = string(it.Value)
			}
			for i := 0; i < docs/2; i++ {
				k := scoreKey(rng.Intn(docs))
				if rng.Intn(3) == 0 {
					delete(stored, string(k))
					if _, err := del(tree, k); err != nil {
						t.Fatal(err)
					}
					continue
				}
				v := scoreRow(i, 1)
				stored[string(k)] = string(v)
				if err := put(tree, k, v); err != nil {
					t.Fatal(err)
				}
			}
			wide := scoreKey(docs / 3)
			stored[string(wide)] = "a wider row"
			if err := put(tree, wide, []byte(stored[string(wide)])); err != nil {
				t.Fatal(err)
			}
			if h, _ := tree.Height(); h < 2 {
				t.Fatalf("%d-byte pages: height %d, want a multi-level tree", pageSize, h)
			}

			var probeKeys [][]byte
			fixedLeaves, walkedLeaves, fixedInternal := 0, 0, 0
			forEachNode(t, tree.View(), func(id pagefile.PageID, data []byte) {
				if data[0] == nodeInternal {
					n, off, err := internalHeader(id, data)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := fitStride(data, off+8, n, false); !ok {
						t.Fatalf("internal page %d of 8-byte separators is not fixed-width", id)
					}
					fixedInternal++
					return
				}
				var m leafImage
				fr, err := tree.pool.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				err = m.load(fr)
				fr.Release()
				if err != nil {
					t.Fatal(err)
				}
				if m.fixed.width > 0 {
					fixedLeaves++
				} else {
					walkedLeaves++
				}
				keys := [][]byte{{}, {0}, bytes.Repeat([]byte{0xFF}, 9)}
				for i := 0; i < m.len(); i++ {
					doc := int(binary.BigEndian.Uint64(m.key(i)))
					keys = append(keys, scoreKey(doc-1), m.key(i), scoreKey(doc+1), m.key(i)[:7], append(scoreKey(doc), 0))
				}
				checkSearch(t, &m, keys)
				if n := m.len(); n > 0 { // the absent neighbours of the leaf's range
					first, last := binary.BigEndian.Uint64(m.key(0)), binary.BigEndian.Uint64(m.key(n-1))
					probeKeys = append(probeKeys, scoreKey(int(first)-1), scoreKey(int(last)+1))
				}
			})
			if walkedLeaves != 1 || fixedLeaves == 0 || fixedInternal == 0 {
				t.Fatalf("%d-byte pages: %d fixed and %d walked leaves, %d fixed internal nodes; want exactly one walked leaf",
					pageSize, fixedLeaves, walkedLeaves, fixedInternal)
			}
			checkReaders(t, tree.View(), stored, probeKeys, rng)
			if err := pool.CheckPins(); err != nil {
				t.Error(err)
			}
		}
	})

	// A sealed view must read the same through every reader while the
	// writer patches, grows, shrinks and re-seals the tree underneath it.
	t.Run("COW view under mutation", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		tree, pool := newTestTree(t, 512, 512)
		tree.EnableCOW(func(pagefile.PageID) {}) // retired pages are never recycled here
		live := map[string]string{}
		put := func(k, v []byte) {
			t.Helper()
			live[string(k)] = string(v)
			if err := put(tree, k, v); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 500; i++ {
			put(cowKey(i*2), cowVal(i, 0))
		}
		tree.Seal()
		sealed := tree.View()
		frozen := map[string]string{}
		for k, v := range live {
			frozen[k] = v
		}
		for round := 1; round <= 3; round++ {
			for i := 0; i < 500; i++ {
				switch rng.Intn(4) {
				case 0:
					put(cowKey(i*2), cowVal(i, round)) // same-length patch
				case 1:
					put(cowKey(i*2+1), cowVal(i, round)) // insert between sealed keys
				case 2:
					k := cowKey(i * 2)
					if _, has := live[string(k)]; has {
						delete(live, string(k))
						if _, err := del(tree, k); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			checkReaders(t, sealed, frozen, absent, rng) // writer mid-generation
			tree.Seal()
			checkReaders(t, sealed, frozen, absent, rng) // and after it published
			checkReaders(t, tree.View(), live, absent, rng)
		}
		if err := pool.CheckPins(); err != nil {
			t.Error(err)
		}
	})
}

// --- allocation guards -------------------------------------------------------

// TestProbeGetAllocatesNothing pins the probe's steady state: once its leaf
// image has grown to the largest leaf, neither a lookup on the cached leaf
// nor one that jumps to another leaf touches the heap — whether the jump
// searches the cached parent image and fetches only the leaf, or takes the
// full descent that recopies the parent (image reload and bound capture
// either way).
func TestProbeGetAllocatesNothing(t *testing.T) {
	pool := buffer.MustNew(pagefile.MustNewMem(1024), 256)
	var items []Item
	for i := 0; i < 4000; i++ {
		items = append(items, Item{Key: codec.PutOrderedUint64(nil, uint64(i)), Value: []byte("score----")})
	}
	tree, err := BulkLoad(pool, items, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := tree.Height(); h < 3 {
		t.Fatalf("height %d, want internal levels below the root", h)
	}
	probe := tree.View().NewProbe()
	get := func(i int) {
		if _, ok, err := probe.Get(items[i].Key); err != nil || !ok {
			t.Fatalf("probe.Get(%d) = %v, %v", i, ok, err)
		}
	}
	for i := range items { // visit every leaf once: the buffers reach their final size
		get(i)
	}
	get(0)
	if n := testing.AllocsPerRun(200, func() { get(0); get(1) }); n != 0 {
		t.Errorf("probe.Get on the cached leaf allocates %.1f objects per run, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() { get(i); i = (i + 1777) % len(items) }); n != 0 {
		t.Errorf("probe.Get across a leaf jump allocates %.1f objects per run, want 0", n)
	}
	// The first key of the second leaf sits under the first leaf's parent;
	// the last key does not (the root has several internal children).
	get(0)
	next, last := probe.leaf.len(), len(items)-1
	if !probe.parent.covers(items[next].Key) || probe.parent.covers(items[last].Key) {
		t.Fatalf("parent image covers [%x, %x): want key %d inside and key %d outside", probe.parent.lo, probe.parent.hi, next, last)
	}
	if n := testing.AllocsPerRun(200, func() { get(0); get(next) }); n != 0 {
		t.Errorf("probe.Get across a leaf jump inside the cached parent allocates %.1f objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { get(0); get(last) }); n != 0 {
		t.Errorf("probe.Get across a leaf jump outside the cached parent allocates %.1f objects per run, want 0", n)
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// probeSink keeps the compiler from discarding BenchmarkProbeGet's lookups.
var probeSink []byte

// BenchmarkProbeGet times one Probe lookup on a Score-table-shaped tree
// (8-byte ordered keys, 9-byte values, bulk-loaded at the Score table's
// fill): ascending keys are the query path's candidate order, where nearly
// every lookup lands on the cached leaf image; random keys make every lookup
// a leaf jump (descent plus image reload).  Both must report 0 allocs/op —
// that is what keeps candidate resolution off the allocator.
func BenchmarkProbeGet(b *testing.B) {
	const n = 50_000
	pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 8192)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: codec.PutOrderedUint64(nil, uint64(i)), Value: make([]byte, 9)}
	}
	tree, err := BulkLoad(pool, items, 0.55)
	if err != nil {
		b.Fatal(err)
	}
	ascending := make([]int, n)
	for i := range ascending {
		ascending[i] = i
	}
	for _, o := range []struct {
		name  string
		order []int
	}{{"ascending", ascending}, {"random", rand.New(rand.NewSource(1)).Perm(n)}} {
		order := o.order
		b.Run(o.name, func(b *testing.B) {
			probe := tree.View().NewProbe()
			for i := range items { // grow the probe's buffers to their steady-state size
				if _, _, err := probe.Get(items[i].Key); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, ok, err := probe.Get(items[order[i%n]].Key)
				if err != nil || !ok {
					b.Fatalf("probe.Get(%d) = %v, %v", order[i%n], ok, err)
				}
				probeSink = v
			}
		})
	}
}

// --- fuzzing -------------------------------------------------------------------

// fuzzPageSize is the page size the fuzz targets install their input at.
const fuzzPageSize = 512

// serializeNode returns n's serialization.
func serializeNode(n *node) []byte { return appendNode(nil, n) }

// fixedLeafPage serializes a Score-table-shaped leaf of n entries with
// vlen-byte values: the stride path's input.
func fixedLeafPage(n, vlen int) []byte {
	l := &node{leaf: true}
	for i := 0; i < n; i++ {
		l.keys = append(l.keys, scoreKey(2*i))
		l.vals = append(l.vals, bytes.Repeat([]byte{byte(i)}, vlen))
	}
	return serializeNode(l)
}

// FuzzLeafWalker installs arbitrary bytes as the root page of a one-page
// tree and reads it through Probe.Get and AscendRange.  Whatever the bytes,
// the readers must not panic, loop or leave a page pinned; a page they
// accept must be one parseNode accepts with the same entries in the same
// order, and a page they reject one it rejects — so hostile bytes surface as
// errors, never as reads beyond the page.
func FuzzLeafWalker(f *testing.F) {
	valid := serializeNode(&node{
		leaf: true,
		keys: [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte("k"), 130)},
		vals: [][]byte{[]byte("1"), nil, bytes.Repeat([]byte("v"), 200)},
	})
	f.Add(valid, []byte("beta"))
	f.Add(valid[:len(valid)/2], []byte("beta")) // truncated inside an entry
	tooMany := append([]byte(nil), valid...)
	tooMany[1] = 0x7F // nKeys larger than the page holds
	f.Add(tooMany, []byte("alpha"))
	overrun := []byte{nodeLeaf, 1, 0xFF, 0x7F, 'x'} // a length prefix of 16383 bytes
	f.Add(overrun, []byte("x"))
	selfLoop := append([]byte{nodeInternal, 0}, make([]byte, 8)...) // child 0 is the root itself
	f.Add(selfLoop, []byte("x"))
	fixed := fixedLeafPage(6, 9)
	f.Add(fixed, scoreKey(3))
	nearFixed := fixedLeafPage(6, 9)
	nearFixed = append(nearFixed[:len(nearFixed)-10], append([]byte{10}, scoreRow(5, 0)...)...)
	nearFixed = append(nearFixed, 0) // the last value is one byte longer
	f.Add(nearFixed, scoreKey(5))
	fixedOverrun := fixedLeafPage(30, 7) // 2 header bytes + 30 entries of 17 fill the page exactly
	fixedOverrun[1] = 31
	f.Add(fixedOverrun, scoreKey(3))

	f.Fuzz(func(t *testing.T, page, key []byte) {
		pool := buffer.MustNew(pagefile.MustNewMem(fuzzPageSize), 8)
		fr, err := pool.NewPage(pagefile.InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		data := fr.Data()
		copy(data, page) // longer inputs are cut at the page, shorter ones zero-padded
		fr.MarkDirty()
		root := fr.ID()
		fr.Release()
		view := Open(pool, root, 0).View()

		val, found, getErr := view.NewProbe().Get(key)
		var scanned []kv
		scanErr := view.AscendRange(nil, nil, func(k, v []byte) bool {
			scanned = append(scanned, kv{string(k), string(v)})
			return true
		})
		if err := pool.CheckPins(); err != nil {
			t.Fatal(err)
		}

		if data[0] != nodeLeaf {
			// A one-page file holds no valid tree under an internal root.
			if getErr == nil || scanErr == nil {
				t.Fatalf("non-leaf root type %d read without error (Get %v, scan %v)", data[0], getErr, scanErr)
			}
			return
		}
		ref, refErr := parseNode(root, data)
		if (refErr == nil) != (getErr == nil) || (refErr == nil) != (scanErr == nil) {
			t.Fatalf("acceptance differs: parseNode %v, Get %v, scan %v", refErr, getErr, scanErr)
		}
		if refErr != nil {
			return
		}
		// The image a reader gets — by stride when the leaf is fixed-width —
		// equals the walker's table entry for entry.
		var img, walked leafImage
		w, err := walkLeaf(root, data)
		if err == nil {
			err = walked.walk(w, data)
		}
		if err == nil {
			if fr, err = pool.Get(root); err == nil {
				err = img.load(fr)
				fr.Release()
			}
		}
		if err != nil {
			t.Fatalf("accepted leaf fails to load: %v", err)
		}
		if img.len() != walked.len() || !bytes.Equal(img.data, walked.data) {
			t.Fatalf("image (fixed width %d) holds %d entries in %d bytes, walker %d in %d", img.fixed.width, img.len(), len(img.data), walked.len(), len(walked.data))
		}
		for i := 0; i < img.len(); i++ {
			if !bytes.Equal(img.key(i), walked.key(i)) || !bytes.Equal(img.val(i), walked.val(i)) {
				t.Fatalf("entry %d: image (%q,%q), walker (%q,%q)", i, img.key(i), img.val(i), walked.key(i), walked.val(i))
			}
		}
		if len(scanned) != len(ref.keys) {
			t.Fatalf("scan visited %d entries, parseNode found %d", len(scanned), len(ref.keys))
		}
		sorted := true
		for i, e := range scanned {
			if e.k != string(ref.keys[i]) || e.v != string(ref.vals[i]) {
				t.Fatalf("entry %d: scan (%q,%q), parseNode (%q,%q)", i, e.k, e.v, ref.keys[i], ref.vals[i])
			}
			sorted = sorted && (i == 0 || scanned[i-1].k < e.k)
		}
		if found {
			match := false
			for _, e := range scanned {
				match = match || (e.k == string(key) && e.v == string(val))
			}
			if !match {
				t.Fatalf("Get(%q) = %q, which the leaf does not hold", key, val)
			}
		}
		if sorted { // binary search is only meaningful over a well-formed leaf
			want, has := "", false
			for _, e := range scanned {
				if e.k == string(key) {
					want, has = e.v, true
				}
			}
			if has != found || (has && want != string(val)) {
				t.Fatalf("Get(%q) = (%q,%v), leaf holds (%q,%v)", key, val, found, want, has)
			}
		}
	})
}

// internalPage serializes an internal node over the given separators, with
// child i at page 100+i.
func internalPage(seps ...[]byte) []byte {
	n := &node{children: []pagefile.PageID{100}}
	for i, k := range seps {
		n.keys = append(n.keys, k)
		n.children = append(n.children, pagefile.PageID(101+i))
	}
	return serializeNode(n)
}

// TestInternalNodeCountBounded: an internal node whose separator count the
// page cannot hold is corrupt.  A count of 2^63 or more used to turn
// negative as an int, so the readers' loops never ran and every key routed
// to child 0 without error.
func TestInternalNodeCountBounded(t *testing.T) {
	for _, count := range []uint64{1 << 63, math.MaxUint64, (fuzzPageSize-10)/9 + 1} {
		page := make([]byte, fuzzPageSize)
		hdr := codec.PutUvarint([]byte{nodeInternal}, count)
		hdr = codec.PutUint64(hdr, 7)
		copy(page, hdr)
		if c, _, err := pageChildWithUpper(1, page, []byte("k"), nil); err == nil {
			t.Errorf("count %d: pageChildWithUpper = child %d, nil error", count, c)
		}
		if off, err := pageFindChildOffset(1, page, 7); err == nil {
			t.Errorf("count %d: pageFindChildOffset = %d, nil error", count, off)
		}
	}
	// The largest count the page can hold is still read.
	page := make([]byte, fuzzPageSize)
	copy(page, codec.PutUint64(codec.PutUvarint([]byte{nodeInternal}, (fuzzPageSize-10)/9), 7))
	if c, _, err := pageChildWithUpper(1, page, []byte("k"), nil); err != nil || c == pagefile.InvalidPageID {
		t.Errorf("full page: pageChildWithUpper = child %d, %v", c, err)
	}
}

// FuzzInternalNode reads arbitrary bytes as an internal page.  The child
// search must not panic; the stride path (pageChildWithUpper on a
// fixed-width node) and the walker (pageChildWalk) must agree on acceptance,
// and — whenever the separators are in order, as a tree's always are — on
// the child and its upper bound, which must also be childIndex's answer over
// the parsed node.  pageFindChildOffset must locate the chosen child.
func FuzzInternalNode(f *testing.F) {
	f.Add(internalPage(scoreKey(10), scoreKey(20), scoreKey(30)), scoreKey(20))
	f.Add(internalPage([]byte("b"), []byte("dd"), []byte("fff")), []byte("dd"))
	f.Add(internalPage(scoreKey(10), scoreKey(20), append(scoreKey(30), 0)), scoreKey(25)) // near-fixed: the last separator is wider
	overrun := internalPage(scoreKey(10), scoreKey(20))
	overrun[1] = 60 // more fixed-width separators than the page holds
	f.Add(overrun, scoreKey(15))
	huge := codec.PutUint64(codec.PutUvarint([]byte{nodeInternal}, 1<<63), 7)
	f.Add(huge, []byte("x"))

	f.Fuzz(func(t *testing.T, page, key []byte) {
		data := make([]byte, fuzzPageSize)
		copy(data, page)
		data[0] = nodeInternal // the type byte is not under test

		child, upper, err := pageChildWithUpper(1, data, key, nil)
		n, off, herr := internalHeader(1, data)
		wchild, wupper, werr := pagefile.InvalidPageID, []byte(nil), herr
		if herr == nil {
			wchild, wupper, werr = pageChildWalk(data, off, n, key)
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("acceptance differs: stride %v, walker %v", err, werr)
		}
		if err != nil {
			return
		}
		if coff, err := pageFindChildOffset(1, data, child); err != nil || pagefile.PageID(binary.LittleEndian.Uint64(data[coff:])) != child {
			t.Fatalf("pageFindChildOffset(%d) = %d, %v", child, coff, err)
		}
		s, fixed := fitStride(data, off+8, n, false)
		if !fixed {
			return // pageChildWithUpper is the walker
		}
		for i := 1; i < s.n; i++ {
			if bytes.Compare(s.key(data, i-1), s.key(data, i)) > 0 {
				return // bisection and a linear scan may part ways over unsorted separators
			}
		}
		ref, err := parseNode(1, data)
		if err != nil {
			t.Fatalf("parseNode rejects a fixed-width node: %v", err)
		}
		ci := childIndex(ref, key)
		var rupper []byte
		if ci < len(ref.keys) {
			rupper = ref.keys[ci]
		}
		if child != wchild || child != ref.children[ci] ||
			!bytes.Equal(upper, wupper) || (upper == nil) != (wupper == nil) ||
			!bytes.Equal(upper, rupper) || (upper == nil) != (ci == len(ref.keys)) {
			t.Fatalf("key %x: stride (%d, %x), walker (%d, %x), childIndex (%d, %x)", key, child, upper, wchild, wupper, ref.children[ci], rupper)
		}
	})
}
