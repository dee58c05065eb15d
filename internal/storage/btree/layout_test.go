package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// leafNoteOf returns the layout note on the frame of the leaf key routes to.
func leafNoteOf(t *testing.T, tree *Tree, key []byte) uint64 {
	t.Helper()
	fr, err := tree.descendToLeaf(key, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	return fr.Layout()
}

// TestLayoutNoteFollowsLeafBytes writes, in place, to a leaf whose frame a
// probe has noted — the kind of tree a relation table is, where a page's
// bytes change under the same frame — and requires every write to drop the
// note and a probe loading the leaf afterwards to read the new bytes: a
// patched value, an inserted entry (a new count) and a wider value (a leaf
// no longer fixed-width), and back.
func TestLayoutNoteFollowsLeafBytes(t *testing.T) {
	tree, pool := newTestTree(t, 512, 64)
	want := map[int][]byte{}
	for i := 0; i < 20; i++ {
		want[2*i] = scoreRow(2*i, 0)
		if err := put(tree, scoreKey(2*i), want[2*i]); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := tree.Height(); h != 1 {
		t.Fatalf("height %d, want a root leaf", h)
	}
	probe := tree.View().NewProbe()
	check := func(step string, note uint64) {
		t.Helper()
		if got := leafNoteOf(t, tree, scoreKey(0)); got != 0 {
			t.Fatalf("%s: the write left note %#x on the leaf", step, got)
		}
		for doc := -1; doc <= 40; doc++ {
			probe.Reset(tree.View()) // drop the probe's own image: load from the frame
			v, ok, err := probe.Get(scoreKey(doc))
			if err != nil || ok != (want[doc] != nil) || !bytes.Equal(v, want[doc]) {
				t.Fatalf("%s: Get(%d) = (%x, %v, %v), want %x", step, doc, v, ok, err, want[doc])
			}
			if got := leafNoteOf(t, tree, scoreKey(0)); got != note {
				t.Fatalf("%s: note after a load %#x, want %#x", step, got, note)
			}
		}
	}
	fixed := func(n int) uint64 {
		return leafNote(stride{off: 2, n: n, klen: 8, vskip: 10, width: 19})
	}
	if got := leafNoteOf(t, tree, scoreKey(0)); got != 0 {
		t.Fatalf("note %#x before any probe", got)
	}
	probe.Reset(tree.View())
	if _, _, err := probe.Get(scoreKey(4)); err != nil {
		t.Fatal(err)
	}
	if got := leafNoteOf(t, tree, scoreKey(0)); got != fixed(20) {
		t.Fatalf("first load noted %#x, want %#x", got, fixed(20))
	}

	patches := tree.Patches()
	want[4] = scoreRow(4, 1)
	if err := put(tree, scoreKey(4), want[4]); err != nil {
		t.Fatal(err)
	}
	if tree.Patches() != patches+1 {
		t.Fatal("a same-length rewrite did not take the patch path")
	}
	check("patch", fixed(20))

	want[5] = scoreRow(5, 0)
	if err := put(tree, scoreKey(5), want[5]); err != nil {
		t.Fatal(err)
	}
	check("insert", fixed(21))

	want[6] = []byte("a row wider than nine bytes")
	if err := put(tree, scoreKey(6), want[6]); err != nil {
		t.Fatal(err)
	}
	check("widen", noteWalked)

	want[6] = scoreRow(6, 0)
	if err := put(tree, scoreKey(6), want[6]); err != nil {
		t.Fatal(err)
	}
	check("narrow", fixed(21))
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestEvictedFrameCarriesNoNote reads a tree of fixed-width and walked
// leaves through a pool of four frames, so that every page buffer is
// recycled for page after page, and requires a page brought in by a miss to
// carry no note, and every read to see its own page's entries.
func TestEvictedFrameCarriesNoNote(t *testing.T) {
	pool := buffer.MustNew(pagefile.MustNewMem(512), 4)
	items := make([]Item, 600)
	want := map[string][]byte{}
	for i := range items {
		v := scoreRow(i, 0)
		if i/40%2 == 1 { // every other leaf's worth of rows is walked
			v = append(v, byte(i%3))
		}
		items[i] = Item{Key: scoreKey(i), Value: v}
		want[string(items[i].Key)] = v
	}
	tree, err := BulkLoad(pool, items, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []pagefile.PageID
	walked := 0
	forEachNode(t, tree.View(), func(id pagefile.PageID, data []byte) {
		if data[0] != nodeLeaf {
			return
		}
		leaves = append(leaves, id)
		if w, err := walkLeaf(id, data); err != nil {
			t.Fatal(err)
		} else if _, ok := fitStride(data, w.off, uint64(w.left), true); !ok {
			walked++
		}
	})
	if walked == 0 || walked == len(leaves) {
		t.Fatalf("%d of %d leaves walked, want both kinds", walked, len(leaves))
	}

	rng := rand.New(rand.NewSource(3))
	probe := tree.View().NewProbe()
	misses := 0
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(items)) {
			v, ok, err := probe.Get(items[i].Key)
			if err != nil || !ok || !bytes.Equal(v, want[string(items[i].Key)]) {
				t.Fatalf("Get(%d) = (%x, %v, %v), want %x", i, v, ok, err, want[string(items[i].Key)])
			}
		}
		// Every leaf has been noted by now, and all but a few evicted.
		for _, id := range leaves {
			before := pool.Stats().Misses
			fr, err := pool.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if pool.Stats().Misses > before {
				misses++
				if note := fr.Layout(); note != 0 {
					t.Fatalf("page %d read into a recycled frame carries note %#x", id, note)
				}
			}
			fr.Release()
		}
	}
	if misses == 0 {
		t.Fatal("no leaf was evicted: the pool is too large to test reuse")
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestConcurrentProbesShareNotes runs probes on several goroutines over one
// tree through a pool small enough to evict, so that they store and reuse
// notes on the same frames at once; run under -race.
func TestConcurrentProbesShareNotes(t *testing.T) {
	pool := buffer.MustNew(pagefile.MustNewMem(512), 16)
	const n = 3000
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: scoreKey(2 * i), Value: scoreRow(2*i, 0)}
	}
	tree, err := BulkLoad(pool, items, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	v := tree.View()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			probe := v.NewProbe()
			doc := 0
			for i := 0; i < 3000; i++ {
				if rng.Intn(8) == 0 {
					doc = rng.Intn(2 * n)
				} else {
					doc += 1 + rng.Intn(4)
				}
				val, ok, err := probe.Get(scoreKey(doc))
				if err != nil || ok != (doc%2 == 0 && doc < 2*n) || ok && !bytes.Equal(val, scoreRow(doc, 0)) {
					errs <- fmt.Errorf("Get(%d) = (%x, %v, %v)", doc, val, ok, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// FuzzStrideSearch64 checks the interpolated 8-byte search against plain
// bisection.  The input's bytes, eight at a time, are the keys (sorted and
// deduplicated, as a node's are), shifted right by spread%64 bits to
// cluster them, and complemented when spread's top bit is set to cluster
// them near MaxUint64; each key set is laid out as a leaf and as an
// internal node, and searched for every key, its neighbours, the midpoint
// of each gap, 0, MaxUint64 and q.
func FuzzStrideSearch64(f *testing.F) {
	keyBytes := func(keys ...uint64) []byte {
		var b []byte
		for _, k := range keys {
			b = binary.BigEndian.AppendUint64(b, k)
		}
		return b
	}
	f.Add(keyBytes(7), uint64(7), uint8(0))                 // n = 1
	f.Add(keyBytes(0, math.MaxUint64), uint64(1), uint8(0)) // both extremes
	f.Add(keyBytes(0, 1, 2, 3, math.MaxUint64), uint64(1<<63), uint8(0))
	f.Add(keyBytes(10, 12, 14, 16, 18, 20, 22), uint64(15), uint8(0))
	f.Add(keyBytes(1, 2, 4, 8, 16, 32, 64, 1<<20, 1<<40, 1<<62), uint64(3), uint8(0)) // exponential: the guess is far off
	f.Add(keyBytes(1, 2, 3, 4, 5, 6, 1<<60), uint64(4), uint8(128))                   // a cluster near MaxUint64 and an outlier
	f.Add(keyBytes(5<<40, 6<<40, 7<<40, 8<<40), uint64(9<<40), uint8(40))             // clustered near 0

	f.Fuzz(func(t *testing.T, raw []byte, q uint64, spread uint8) {
		var keys []uint64
		for ; len(raw) >= 8 && len(keys) < 300; raw = raw[8:] {
			k := binary.BigEndian.Uint64(raw) >> (spread % 64)
			if spread&128 != 0 {
				k = ^k
			}
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			return
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w := 1
		for i := 1; i < len(keys); i++ {
			if keys[i] != keys[w-1] {
				keys[w] = keys[i]
				w++
			}
		}
		keys = keys[:w]

		queries := []uint64{0, math.MaxUint64, q}
		for i, k := range keys {
			queries = append(queries, k, k-1, k+1)
			if i > 0 {
				queries = append(queries, keys[i-1]+(k-keys[i-1])/2)
			}
		}
		leaf, internal := &node{leaf: true}, &node{children: []pagefile.PageID{1}}
		for i, k := range keys {
			leaf.keys = append(leaf.keys, binary.BigEndian.AppendUint64(nil, k))
			leaf.vals = append(leaf.vals, []byte{byte(i)})
			internal.keys = append(internal.keys, leaf.keys[i])
			internal.children = append(internal.children, pagefile.PageID(i+2))
		}
		for _, nd := range []*node{leaf, internal} {
			data := serializeNode(nd)
			off := leafHeaderSize(len(keys)) // a type byte and the count
			if !nd.leaf {
				off += 8
			}
			s, ok := fitStride(data, off, uint64(len(keys)), nd.leaf)
			if !ok {
				t.Fatalf("%d 8-byte keys (leaf %v) are not fixed-width", len(keys), nd.leaf)
			}
			for _, q := range queries {
				want := sort.Search(len(keys), func(i int) bool { return keys[i] >= q })
				if got := s.search(data, binary.BigEndian.AppendUint64(nil, q)); got != want {
					t.Fatalf("search(%#x) over %d keys (leaf %v) = %d, bisection %d", q, len(keys), nd.leaf, got, want)
				}
			}
		}
	})
}
