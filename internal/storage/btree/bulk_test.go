package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

func bulkItems(n int, valSize int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Key:   []byte(fmt.Sprintf("key%08d", i)),
			Value: bytes.Repeat([]byte{byte('a' + i%26)}, valSize),
		}
	}
	return items
}

func collectAll(t *testing.T, tree *Tree) ([][]byte, [][]byte) {
	t.Helper()
	var keys, vals [][]byte
	err := tree.View().Ascend(func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		vals = append(vals, append([]byte(nil), v...))
		return true
	})
	if err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	return keys, vals
}

// TestBulkLoadEquivalence checks that a bulk-loaded tree holds exactly the
// same content, in the same cursor order, as a tree built by one-item
// batches, at several sizes including empty, single-leaf and multi-level
// shapes.
func TestBulkLoadEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 7, 120, 2500} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			file := pagefile.MustNewMem(512)
			pool := buffer.MustNew(file, 64)
			items := bulkItems(n, 8)
			bulk, err := BulkLoad(pool, items, MaxBulkFill)
			if err != nil {
				t.Fatalf("BulkLoad: %v", err)
			}
			if err := bulk.CheckInvariants(); err != nil {
				t.Fatalf("bulk tree invariants: %v", err)
			}
			if bulk.Len() != n {
				t.Fatalf("Len = %d, want %d", bulk.Len(), n)
			}

			up, upPool := newTestTree(t, 512, 64)
			for _, it := range items {
				if err := put(up, it.Key, it.Value); err != nil {
					t.Fatal(err)
				}
			}
			bk, bv := collectAll(t, bulk)
			uk, uv := collectAll(t, up)
			if len(bk) != len(uk) {
				t.Fatalf("bulk has %d keys, upsert-built has %d", len(bk), len(uk))
			}
			for i := range bk {
				if !bytes.Equal(bk[i], uk[i]) || !bytes.Equal(bv[i], uv[i]) {
					t.Fatalf("entry %d: bulk (%q,%q) != upsert (%q,%q)", i, bk[i], bv[i], uk[i], uv[i])
				}
			}
			// Point lookups agree too.
			for _, it := range items {
				v, ok, err := bulk.Get(it.Key)
				if err != nil || !ok || !bytes.Equal(v, it.Value) {
					t.Fatalf("Get(%q) = %q, %v, %v", it.Key, v, ok, err)
				}
			}
			if err := pool.CheckPins(); err != nil {
				t.Errorf("bulk pool pins: %v", err)
			}
			if err := upPool.CheckPins(); err != nil {
				t.Errorf("upsert pool pins: %v", err)
			}
		})
	}
}

// TestBulkLoadFillFactor checks that bulk-built leaves are packed close to
// the bulk fill target, i.e. the bulk loader produces far fewer, fuller
// leaves than the partly full ones repeated splitting leaves behind.  The
// upsert-built tree takes the keys in shuffled order: an ascending build
// splits at the append point and fills its leaves as densely as BulkLoad
// (TestAscendingInsertsFillLeaves).
func TestBulkLoadFillFactor(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	items := bulkItems(3000, 8)
	bulk, err := BulkLoad(pool, items, MaxBulkFill)
	if err != nil {
		t.Fatal(err)
	}
	leaves, used, err := bulk.LeafStats()
	if err != nil {
		t.Fatal(err)
	}
	fill := float64(used) / float64(leaves*512)
	if fill < 0.75 {
		t.Errorf("bulk leaf fill = %.2f, want >= 0.75", fill)
	}

	up, _ := newTestTree(t, 512, 64)
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(items)) {
		if err := put(up, items[i].Key, items[i].Value); err != nil {
			t.Fatal(err)
		}
	}
	upLeaves, _, err := up.LeafStats()
	if err != nil {
		t.Fatal(err)
	}
	if leaves >= upLeaves {
		t.Errorf("bulk tree has %d leaves, shuffled upsert-built has %d; bulk should be denser", leaves, upLeaves)
	}
}

// TestAscendingInsertsFillLeaves: keys inserted in ascending order, as a
// table's primary keys arrive, leave every leaf but the last at least 90 %
// full, one key at a time and in sorted batches, on an in-place and on a
// copy-on-write tree.  A leaf that splits at the insert point when the new
// key is its last keeps everything it held; a midpoint split leaves each
// left half half full for good.
func TestAscendingInsertsFillLeaves(t *testing.T) {
	const pageSize, n = 512, 3000
	items := bulkItems(n, 8)
	for _, tc := range []struct {
		name  string
		batch int
		cow   bool
	}{{"one_by_one", 1, false}, {"batches_of_64", 64, false}, {"cow_batches_of_16", 16, true}} {
		t.Run(tc.name, func(t *testing.T) {
			tree, pool := newTestTree(t, pageSize, 64)
			if tc.cow {
				tree.EnableCOW(func(id pagefile.PageID) {
					if err := pool.FreePage(id); err != nil {
						t.Fatal(err)
					}
				})
			}
			for i := 0; i < n; i += tc.batch {
				if tc.cow {
					tree.Seal()
				}
				if _, err := tree.UpsertBatch(append([]Item(nil), items[i:min(i+tc.batch, n)]...)); err != nil {
					t.Fatal(err)
				}
			}
			var sizes []int
			var visit func(id pagefile.PageID)
			visit = func(id pagefile.PageID) {
				nd, err := tree.readNode(id)
				if err != nil {
					t.Fatal(err)
				}
				if nd.leaf {
					sizes = append(sizes, nodeSize(nd))
				}
				for _, c := range nd.children {
					visit(c)
				}
			}
			visit(tree.rootID())
			used := 0
			for _, sz := range sizes[:len(sizes)-1] {
				used += sz
			}
			fill := float64(used) / float64((len(sizes)-1)*pageSize)
			t.Logf("%d leaves, fill %.3f without the last", len(sizes), fill)
			if fill < 0.9 {
				t.Errorf("%d ascending inserts: leaves %.2f full, want >= 0.90", n, fill)
			}
		})
	}
}

// TestBulkLoadRejectsBadInput checks the input validation.
func TestBulkLoadRejectsBadInput(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	if _, err := BulkLoad(pool, []Item{{Key: []byte("b")}, {Key: []byte("a")}}, MaxBulkFill); err == nil {
		t.Error("out-of-order input accepted")
	}
	if _, err := BulkLoad(pool, []Item{{Key: []byte("a")}, {Key: []byte("a")}}, MaxBulkFill); err == nil {
		t.Error("duplicate keys accepted")
	}
	if _, err := BulkLoad(pool, []Item{{Key: nil, Value: []byte("v")}}, MaxBulkFill); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := BulkLoad(pool, []Item{{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 512)}}, MaxBulkFill); err == nil {
		t.Error("oversized entry accepted")
	}
}

// TestBulkLoadThenMutate checks that a bulk-built tree accepts the full
// mutation and scan API afterwards: inserts split its packed leaves
// correctly and deletes behave as on a tree built by one-item batches.
func TestBulkLoadThenMutate(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	items := bulkItems(1000, 8)
	tree, err := BulkLoad(pool, items, MaxBulkFill)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Interleave inserts of fresh keys with deletes of loaded ones.
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			k := []byte(fmt.Sprintf("key%08d-x", rng.Intn(1000)))
			if err := put(tree, k, []byte("new")); err != nil {
				t.Fatal(err)
			}
		} else {
			k := items[rng.Intn(1000)].Key
			if _, err := del(tree, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants after mutation: %v", err)
	}
	if err := pool.CheckPins(); err != nil {
		t.Errorf("pins: %v", err)
	}
}

// sortedMap is the reference the batch tests hold a tree to: a plain map
// whose batches are applied one item at a time, in order.
type sortedMap map[string]string

// upsert applies items in order and reports how many keys were new.
func (m sortedMap) upsert(items []Item) int {
	inserted := 0
	for _, it := range items {
		if _, ok := m[string(it.Key)]; !ok {
			inserted++
		}
		m[string(it.Key)] = string(it.Value)
	}
	return inserted
}

// delete removes keys in order and reports how many were present.
func (m sortedMap) delete(keys [][]byte) int {
	removed := 0
	for _, k := range keys {
		if _, ok := m[string(k)]; ok {
			removed++
			delete(m, string(k))
		}
	}
	return removed
}

func (m sortedMap) clone() sortedMap {
	c := make(sortedMap, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// diff reports the first way v's contents or Len differ from m's, or nil.
func (m sortedMap) diff(v View) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	var bad error
	err := v.Ascend(func(k, val []byte) bool {
		switch {
		case i >= len(keys):
			bad = fmt.Errorf("extra key %q", k)
		case string(k) != keys[i]:
			bad = fmt.Errorf("entry %d is key %q, want %q", i, k, keys[i])
		case string(val) != m[keys[i]]:
			bad = fmt.Errorf("key %q = %q, want %q", k, val, m[keys[i]])
		}
		i++
		return bad == nil
	})
	switch {
	case err != nil:
		return err
	case bad != nil:
		return bad
	case i != len(keys):
		return fmt.Errorf("scan visited %d keys, want %d", i, len(keys))
	case v.Len() != len(m):
		return fmt.Errorf("Len = %d, want %d", v.Len(), len(m))
	}
	return nil
}

// TestUpsertBatchEquivalence checks UpsertBatch against the sorted-map
// model, including duplicate keys in the batch (last occurrence wins),
// replacements of existing keys and one-item batches.
func TestUpsertBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree, pool := newTestTree(t, 512, 64)
	model := sortedMap{}
	base := bulkItems(600, 8)
	model.upsert(base)
	if _, err := tree.UpsertBatch(append([]Item(nil), base...)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(300)
		if round%4 == 0 {
			n = 1
		}
		batch := make([]Item, n)
		for i := range batch {
			// Mix of replacements of existing keys, fresh keys and
			// within-batch duplicates.
			key := fmt.Sprintf("key%08d", rng.Intn(900))
			if rng.Intn(4) == 0 {
				key = fmt.Sprintf("new%08d", rng.Intn(200))
			}
			batch[i] = Item{Key: []byte(key), Value: []byte(fmt.Sprintf("r%d-%d", round, i))}
		}
		want := model.upsert(batch)
		got, err := tree.UpsertBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: UpsertBatch inserted %d, model inserted %d", round, got, want)
		}
		if err := model.diff(tree.View()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if err := pool.CheckPins(); err != nil {
		t.Errorf("pins: %v", err)
	}
}

// TestDeleteBatchEquivalence checks DeleteBatch against the sorted-map
// model, including absent keys and duplicates within a batch.
func TestDeleteBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree, pool := newTestTree(t, 512, 64)
	model := sortedMap{}
	base := bulkItems(800, 8)
	model.upsert(base)
	if _, err := tree.UpsertBatch(append([]Item(nil), base...)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		var keys [][]byte
		for i := 0; i < 1+rng.Intn(100); i++ {
			keys = append(keys, []byte(fmt.Sprintf("key%08d", rng.Intn(1200)))) // ~1/3 absent
		}
		want := model.delete(keys)
		got, err := tree.DeleteBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: DeleteBatch removed %d, model removed %d", round, got, want)
		}
		if err := model.diff(tree.View()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CheckPins(); err != nil {
		t.Errorf("pins: %v", err)
	}
}

// TestUpsertBatchVariedSizes drives UpsertBatch with values of varying size
// so replacements change leaf occupancy in both directions and some
// replacements overflow into the split fallback.
func TestUpsertBatchVariedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree, _ := newTestTree(t, 512, 256)
	model := sortedMap{}
	for round := 0; round < 15; round++ {
		n := 1 + rng.Intn(120)
		batch := make([]Item, n)
		for i := range batch {
			batch[i] = Item{
				Key:   []byte(fmt.Sprintf("k%06d", rng.Intn(400))),
				Value: bytes.Repeat([]byte{'v'}, rng.Intn(80)),
			}
		}
		model.upsert(batch)
		if _, err := tree.UpsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := model.diff(tree.View()); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadSortedLeaves verifies the leaves of a bulk-built tree are
// strictly sorted end to end: a scan visits the input run exactly, in order.
func TestBulkLoadSortedLeaves(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	items := bulkItems(1234, 4)
	tree, err := BulkLoad(pool, items, MaxBulkFill)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = tree.View().Ascend(func(k, v []byte) bool {
		if !bytes.Equal(k, items[i].Key) {
			t.Fatalf("position %d: got %q, want %q", i, k, items[i].Key)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(items) {
		t.Fatalf("cursor visited %d keys, want %d", i, len(items))
	}
	if !sort.SliceIsSorted(items, func(a, b int) bool { return bytes.Compare(items[a].Key, items[b].Key) < 0 }) {
		t.Fatal("test input not sorted")
	}
}

// FuzzTreeBatches decodes arbitrary bytes into a sequence of UpsertBatch and
// DeleteBatch calls — batches of one or more items with duplicate keys,
// same-length replacements, growing values and oversize entries — and runs
// it on an in-place tree and on a copy-on-write tree, sealing the latter and
// capturing Views in between.  After every batch each tree must hold the
// sorted-map model's contents and Len and pass CheckInvariants, and every
// View sealed earlier must still read exactly what it captured.  The COW
// tree's file must hold the reservations its copies made (reserveLog.check):
// no more than the copies, and none on a page the current tree uses.
func FuzzTreeBatches(f *testing.F) {
	// Each step is an op byte (mod 3: upsert, delete, seal and capture), a
	// size byte (1 + b%16 items), then per item a key byte and, for an
	// upsert, a value byte whose low two bits pick same-length, growing,
	// small or oversize.
	f.Add([]byte{
		0, 7, 0, 34, 1, 34, 2, 34, 3, 34, 4, 34, 5, 34, 6, 34, 7, 34, // eight small values
		2, 0, // seal
		0, 3, 0, 4, 1, 4, 2, 4, 3, 4, // same-length rewrites of a sealed leaf
		2, 0,
		1, 1, 0, 5, // delete two keys
		0, 0, 6, 21, // grow one value
		0, 1, 8, 3, 9, 34, // a batch with an oversize entry
	})
	var splits []byte
	for round := byte(0); round < 3; round++ {
		splits = append(splits, 0, 15) // sixteen fresh keys of 24-byte values
		for k := byte(0); k < 16; k++ {
			splits = append(splits, 16*round+k, 93)
		}
		splits = append(splits, 2, 0)
	}
	splits = append(splits, 0, 15) // grow the first sixteen
	for k := byte(0); k < 16; k++ {
		splits = append(splits, k, 93)
	}
	splits = append(splits, 2, 0, 1, 15) // seal, then delete them
	for k := byte(0); k < 16; k++ {
		splits = append(splits, k)
	}
	f.Add(splits)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		type capture struct {
			view View
			want sortedMap
		}
		type side struct {
			tree  *Tree
			pool  *buffer.Pool
			views []capture
		}
		inPlace, inPool := newTestTree(t, 512, 64)
		cowFile := newReserveLog(pagefile.MustNewMem(512))
		cowPool := buffer.MustNew(cowFile, 64)
		cow := MustNew(cowPool)
		cow.EnableCOW(func(pagefile.PageID) {}) // never recycled, so every View stays readable
		sides := []*side{{tree: inPlace, pool: inPool}, {tree: cow, pool: cowPool}}
		model := sortedMap{}
		maxEntry := inPlace.maxEntrySize()

		for step := 0; step < 64 && len(data) > 0; step++ {
			op := next()
			n := 1 + int(next()%16)
			switch op % 3 {
			case 0: // upsert batch
				batch := make([]Item, n)
				oversize := false
				for i := range batch {
					key := []byte(fmt.Sprintf("k%02x", next()%64))
					vb := next()
					cur := len(model[string(key)])
					var size int
					switch vb % 4 {
					case 0: // same length as the stored value: a patch candidate
						size = cur
					case 1: // grows the stored value
						size = cur + 1 + int(vb>>2)%24
					case 2: // small
						size = int(vb>>2) % 12
					default: // oversize entry: the whole batch is refused
						size = maxEntry
						oversize = true
					}
					if !oversize && size > maxEntry-16-len(key) {
						size = maxEntry - 16 - len(key)
					}
					batch[i] = Item{Key: key, Value: bytes.Repeat([]byte{'a' + vb%26}, size)}
				}
				want := 0
				if !oversize {
					want = model.upsert(batch)
				}
				for _, sd := range sides {
					got, err := sd.tree.UpsertBatch(append([]Item(nil), batch...))
					if oversize {
						if !errors.Is(err, ErrEntryTooLarge) {
							t.Fatalf("step %d: oversize batch: err = %v, want ErrEntryTooLarge", step, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d: UpsertBatch: %v", step, err)
					}
					if got != want {
						t.Fatalf("step %d: UpsertBatch inserted %d, model %d", step, got, want)
					}
				}
			case 1: // delete batch
				keys := make([][]byte, n)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("k%02x", next()%64))
				}
				want := model.delete(keys)
				for _, sd := range sides {
					got, err := sd.tree.DeleteBatch(append([][]byte(nil), keys...))
					if err != nil {
						t.Fatalf("step %d: DeleteBatch: %v", step, err)
					}
					if got != want {
						t.Fatalf("step %d: DeleteBatch removed %d, model %d", step, got, want)
					}
				}
			default: // publish: seal the COW tree and capture a View of it
				cow.Seal()
				sides[1].views = append(sides[1].views, capture{cow.View(), model.clone()})
			}
			for si, sd := range sides {
				if err := model.diff(sd.tree.View()); err != nil {
					t.Fatalf("step %d side %d: %v", step, si, err)
				}
				if err := sd.tree.CheckInvariants(); err != nil {
					t.Fatalf("step %d side %d: %v", step, si, err)
				}
				for vi, c := range sd.views {
					if err := c.want.diff(c.view); err != nil {
						t.Fatalf("step %d: view %d: %v", step, vi, err)
					}
				}
				if err := sd.pool.CheckPins(); err != nil {
					t.Fatal(err)
				}
			}
			if err := cowFile.check(cow); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}
