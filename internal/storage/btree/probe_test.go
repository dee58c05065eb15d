package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// TestProbeMatchesGet drives a probe with ascending, descending and random
// key sequences — hits and misses — and requires agreement with Get.
func TestProbeMatchesGet(t *testing.T) {
	tree, pool := newTestTree(t, 512, 64)
	for i := 0; i < 1500; i += 2 { // only even keys exist
		if err := put(tree, []byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(probe *Probe, key []byte) {
		t.Helper()
		pv, pok, perr := probe.Get(key)
		gv, gok, gerr := tree.Get(key)
		if (perr != nil) != (gerr != nil) || pok != gok || !bytes.Equal(pv, gv) {
			t.Fatalf("probe.Get(%q) = (%q,%v,%v), Get = (%q,%v,%v)", key, pv, pok, perr, gv, gok, gerr)
		}
	}
	asc := tree.View().NewProbe()
	for i := 0; i < 1600; i++ { // ascending, ~half misses
		check(asc, []byte(fmt.Sprintf("k%06d", i)))
	}
	desc := tree.View().NewProbe()
	for i := 1599; i >= 0; i-- {
		check(desc, []byte(fmt.Sprintf("k%06d", i)))
	}
	rng := rand.New(rand.NewSource(9))
	random := tree.View().NewProbe()
	for i := 0; i < 2000; i++ {
		check(random, []byte(fmt.Sprintf("k%06d", rng.Intn(1800))))
	}
	// Keys outside the stored range on both sides.
	edge := tree.View().NewProbe()
	check(edge, []byte("a"))
	check(edge, []byte("zzz"))
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestProbeEmptyAndSingleLeaf covers trees whose root is the only leaf: the
// probe must answer misses without error.
func TestProbeEmptyAndSingleLeaf(t *testing.T) {
	tree, _ := newTestTree(t, 512, 64)
	probe := tree.View().NewProbe()
	for i := 0; i < 3; i++ {
		if _, ok, err := probe.Get([]byte("missing")); ok || err != nil {
			t.Fatalf("probe on empty tree = %v, %v", ok, err)
		}
	}
	if err := put(tree, []byte("only"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	probe = tree.View().NewProbe()
	if v, ok, err := probe.Get([]byte("only")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("probe.Get(only) = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := probe.Get([]byte("aaa")); ok {
		t.Error("probe found a key below the only entry")
	}
	if _, ok, _ := probe.Get([]byte("zzz")); ok {
		t.Error("probe found a key above the only entry")
	}
}

// TestProbeOnBulkLoadedTree checks the probe against the packed leaves a
// bulk load produces.
func TestProbeOnBulkLoadedTree(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	items := bulkItems(2000, 8)
	tree, err := BulkLoad(pool, items, MaxBulkFill)
	if err != nil {
		t.Fatal(err)
	}
	probe := tree.View().NewProbe()
	for _, it := range items {
		v, ok, err := probe.Get(it.Key)
		if err != nil || !ok || !bytes.Equal(v, it.Value) {
			t.Fatalf("probe.Get(%q) = %q, %v, %v", it.Key, v, ok, err)
		}
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// fixedTree bulk-loads a Score-table-shaped tree — 8-byte ordered keys,
// 9-byte rows, every node fixed-width — of the even documents below 2n at
// 55 % fill, on 512-byte pages, and requires the given height.
func fixedTree(t *testing.T, n, gen, height int) (View, *buffer.Pool) {
	t.Helper()
	pool := buffer.MustNew(pagefile.MustNewMem(512), 1024)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: scoreKey(2 * i), Value: scoreRow(2*i, gen)}
	}
	tree, err := BulkLoad(pool, items, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := tree.Height(); h != height {
		t.Fatalf("%d documents: height %d, want %d", n, h, height)
	}
	return tree.View(), pool
}

// probeWalk is a key sequence that stresses the probe's two caches:
// ascending runs that cross leaves, jumps backwards, every separator of the
// tree and its neighbours, absent keys and the rightmost leaf's range.
func probeWalk(t *testing.T, v View, n int, rng *rand.Rand) [][]byte {
	t.Helper()
	var seps []int
	forEachNode(t, v, func(id pagefile.PageID, data []byte) {
		if data[0] != nodeInternal {
			return
		}
		nk, off, err := internalHeader(id, data)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := fitStride(data, off+8, nk, false)
		if !ok {
			t.Fatalf("internal page %d is not fixed-width", id)
		}
		for i := 0; i < s.n; i++ {
			seps = append(seps, int(binary.BigEndian.Uint64(s.key(data, i))))
		}
	})
	if len(seps) == 0 {
		t.Fatal("no separators")
	}
	var walk [][]byte
	doc := 0
	for len(walk) < 4000 {
		switch rng.Intn(6) {
		case 0, 1: // an ascending run, hits and misses
			for j := rng.Intn(40); j > 0; j-- {
				doc += 1 + rng.Intn(3)
				walk = append(walk, scoreKey(doc))
			}
		case 2: // backwards
			doc = rng.Intn(doc + 1)
			walk = append(walk, scoreKey(doc))
		case 3: // a separator and its neighbours
			doc = seps[rng.Intn(len(seps))]
			walk = append(walk, scoreKey(doc), scoreKey(doc-1), scoreKey(doc+1))
		case 4: // the rightmost leaf and beyond it
			doc = 2*n - 1 - rng.Intn(12)
			walk = append(walk, scoreKey(doc), scoreKey(2*n+rng.Intn(4)), bytes.Repeat([]byte{0xFF}, 8))
		default: // anywhere, absent or not
			doc = rng.Intn(2*n + 8)
			walk = append(walk, scoreKey(doc))
		}
	}
	return walk
}

// TestProbeParentImage walks 2- and 3-level fixed-width trees with one
// probe, checking every answer against View.Get, and requires both ways of
// serving a leaf jump to occur where they can: a jump inside the cached
// parent's range costs one page access (the leaf), any other jump a full
// descent.
func TestProbeParentImage(t *testing.T) {
	for _, tc := range []struct{ n, height int }{{150, 2}, {2000, 3}} {
		t.Run(fmt.Sprintf("height %d", tc.height), func(t *testing.T) {
			v, pool := fixedTree(t, tc.n, 0, tc.height)
			probe := v.NewProbe()
			accesses := map[uint64]int{} // page accesses per Get -> how many Gets
			for _, key := range probeWalk(t, v, tc.n, rand.New(rand.NewSource(int64(tc.n)))) {
				before := pool.Stats()
				pv, pok, perr := probe.Get(key)
				after := pool.Stats()
				accesses[after.Hits+after.Misses-before.Hits-before.Misses]++
				gv, gok, gerr := v.Get(nil, key)
				if perr != nil || gerr != nil || pok != gok || !bytes.Equal(pv, gv) {
					t.Fatalf("Get(%x): probe (%x,%v,%v), view (%x,%v,%v)", key, pv, pok, perr, gv, gok, gerr)
				}
			}
			t.Logf("accesses per Get: %v", accesses)
			if accesses[1] == 0 {
				t.Errorf("no leaf jump was served by the parent image: %v", accesses)
			}
			if full := accesses[uint64(tc.height)]; (tc.height > 2) != (full > 1) {
				// The first jump is always a full descent; on two levels the
				// parent is the root and covers every later one.
				t.Errorf("%d full descents on a %d-level tree: %v", full, tc.height, accesses)
			}
			if err := pool.CheckPins(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestProbeResetDropsParent walks one probe across Resets between two trees
// with the same keys and different rows: a parent image kept across a Reset
// would route into the other tree's pages.
func TestProbeResetDropsParent(t *testing.T) {
	a, poolA := fixedTree(t, 2000, 0, 3)
	b, poolB := fixedTree(t, 150, 1, 2)
	probe := &Probe{}
	rng := rand.New(rand.NewSource(7))
	for round, v := range []View{a, b, a, b} {
		probe.Reset(v)
		for _, key := range probeWalk(t, v, v.Len(), rng)[:500] {
			pv, pok, perr := probe.Get(key)
			gv, gok, gerr := v.Get(nil, key)
			if perr != nil || gerr != nil || pok != gok || !bytes.Equal(pv, gv) {
				t.Fatalf("round %d Get(%x): probe (%x,%v,%v), view (%x,%v,%v)", round, key, pv, pok, perr, gv, gok, gerr)
			}
		}
	}
	for _, pool := range []*buffer.Pool{poolA, poolB} {
		if err := pool.CheckPins(); err != nil {
			t.Error(err)
		}
	}
}

// TestParentImageRange routes hand-built internal nodes through a parent
// image as a descent does.  The image is the last node routed, covering the
// range of the child its predecessor chose; a fresh descent starts
// unbounded; and below a node that is not fixed-width there is no image,
// since its lower bounds are not tracked.  Built trees do not reliably put
// a walked node above a fixed-width one, so the probe walks cannot check the
// last rule.
func TestParentImageRange(t *testing.T) {
	root := internalPage(scoreKey(100), scoreKey(200), scoreKey(300))
	fixed := internalPage(scoreKey(210), scoreKey(220))
	walked := internalPage(scoreKey(205), append(scoreKey(250), 0))
	key := scoreKey(215)
	var pi parentImage
	descend := func(pages ...[]byte) {
		pi.start()
		for _, page := range pages {
			if _, _, err := pageChildWithUpper(1, page, key, &pi); err != nil {
				t.Fatal(err)
			}
		}
	}
	descend(root, fixed)
	if !pi.ok || !bytes.Equal(pi.lo, scoreKey(200)) || !bytes.Equal(pi.hi, scoreKey(300)) || !pi.covers(key) {
		t.Fatalf("image over root → fixed: ok %v, range [%x, %x), want [%x, %x)", pi.ok, pi.lo, pi.hi, scoreKey(200), scoreKey(300))
	}
	descend(root)
	if !pi.ok || len(pi.lo) != 0 || len(pi.hi) != 0 {
		t.Fatalf("image of the root: ok %v, range [%x, %x), want unbounded", pi.ok, pi.lo, pi.hi)
	}
	descend(root, walked, fixed)
	if pi.ok {
		t.Fatalf("a node below a walked one has an image covering [%x, %x)", pi.lo, pi.hi)
	}
}
