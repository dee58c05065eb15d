package btree

import (
	"bytes"
	"fmt"
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
// leaves.  That implementation lives on here, as the reference the in-place
// leaf readers are compared against: it shares the descent with them but
// none of the leaf decoding.

// refGet resolves key through a parsed copy of its leaf.
func refGet(v View, key []byte) ([]byte, bool, error) {
	fr, err := v.t.descendFrom(v.root, key, nil, nil)
	if err != nil {
		return nil, false, err
	}
	leaf, err := parseNode(fr.ID(), fr.Data())
	fr.Release()
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
		var upper []byte
		fr, err := v.t.descendFrom(v.root, key, nil, &upper)
		if err != nil {
			return err
		}
		leaf, err := parseNode(fr.ID(), fr.Data())
		fr.Release()
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
		gv, gok, gerr := v.Get(key)
		rv, rok, rerr := refGet(v, key)
		if perr != nil || gerr != nil || rerr != nil {
			t.Fatalf("Get(%q) errors: probe %v, view %v, reference %v", key, perr, gerr, rerr)
		}
		if pok != gok || pok != rok || !bytes.Equal(pv, gv) || !bytes.Equal(pv, rv) {
			t.Fatalf("Get(%q): probe (%q,%v), view (%q,%v), reference (%q,%v)", key, pv, pok, gv, gok, rv, rok)
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
			if err := tree.Put(cowKey(i*3), cowVal(i, 0)); err != nil {
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
				if err := tree.Put(k, val); err != nil {
					t.Fatal(err)
				}
			}
			for k := range stored {
				if rng.Intn(4) == 0 {
					delete(stored, k)
					if ok, err := tree.Delete([]byte(k)); err != nil || !ok {
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
			if err := tree.Put(k, v); err != nil {
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
		tree, err := BulkLoadFill(pool, items, 0.55)
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
			if err := tree.Put(k, v); err != nil {
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
						if _, err := tree.Delete(k); err != nil {
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
// nor one that jumps to another leaf (descent, image reload, bound capture)
// touches the heap.
func TestProbeGetAllocatesNothing(t *testing.T) {
	pool := buffer.MustNew(pagefile.MustNewMem(1024), 256)
	var items []Item
	for i := 0; i < 4000; i++ {
		items = append(items, Item{Key: codec.PutOrderedUint64(nil, uint64(i)), Value: []byte("score----")})
	}
	tree, err := BulkLoadFill(pool, items, 0.55)
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
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// --- fuzzing -------------------------------------------------------------------

// fuzzPageSize is the page size FuzzLeafWalker installs its input at.
const fuzzPageSize = 512

// FuzzLeafWalker installs arbitrary bytes as the root page of a one-page
// tree and reads it through Probe.Get and AscendRange.  Whatever the bytes,
// the readers must not panic, loop or leave a page pinned; a page they
// accept must be one parseNode accepts with the same entries in the same
// order, and a page they reject one it rejects — so hostile bytes surface as
// errors, never as reads beyond the page.
func FuzzLeafWalker(f *testing.F) {
	valid := serializeNode(&node{
		leaf: true, next: pagefile.InvalidPageID, prev: pagefile.InvalidPageID,
		keys: [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte("k"), 130)},
		vals: [][]byte{[]byte("1"), nil, bytes.Repeat([]byte("v"), 200)},
	})
	f.Add(valid, []byte("beta"))
	f.Add(valid[:len(valid)/2], []byte("beta")) // truncated inside an entry
	tooMany := append([]byte(nil), valid...)
	tooMany[1] = 0x7F // nKeys larger than the page holds
	f.Add(tooMany, []byte("alpha"))
	overrun := append([]byte{nodeLeaf, 1}, make([]byte, 16)...)
	overrun = append(overrun, 0xFF, 0x7F, 'x') // a length prefix of 16383 bytes
	f.Add(overrun, []byte("x"))
	selfLoop := append([]byte{nodeInternal, 0}, make([]byte, 8)...) // child 0 is the root itself
	f.Add(selfLoop, []byte("x"))

	f.Fuzz(func(t *testing.T, page, key []byte) {
		pool := buffer.MustNew(pagefile.MustNewMem(fuzzPageSize), 8)
		fr, err := pool.NewPage()
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
