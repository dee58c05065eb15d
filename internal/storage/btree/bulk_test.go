package btree

import (
	"bytes"
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
	err := tree.Ascend(func(k, v []byte) bool {
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
// same content, in the same cursor order, as an Upsert-built tree, at
// several sizes including empty, single-leaf and multi-level shapes.
func TestBulkLoadEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 7, 120, 2500} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			file := pagefile.MustNewMem(512)
			pool := buffer.MustNew(file, 64)
			items := bulkItems(n, 8)
			bulk, err := BulkLoad(pool, items)
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
				if err := up.Put(it.Key, it.Value); err != nil {
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
// leaves than the half-full ones repeated splitting leaves behind.
func TestBulkLoadFillFactor(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	items := bulkItems(3000, 8)
	bulk, err := BulkLoad(pool, items)
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
	for _, it := range items {
		if err := up.Put(it.Key, it.Value); err != nil {
			t.Fatal(err)
		}
	}
	upLeaves, _, err := up.LeafStats()
	if err != nil {
		t.Fatal(err)
	}
	if leaves >= upLeaves {
		t.Errorf("bulk tree has %d leaves, upsert-built has %d; bulk should be denser", leaves, upLeaves)
	}
}

// TestBulkLoadRejectsBadInput checks the input validation.
func TestBulkLoadRejectsBadInput(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	if _, err := BulkLoad(pool, []Item{{Key: []byte("b")}, {Key: []byte("a")}}); err == nil {
		t.Error("out-of-order input accepted")
	}
	if _, err := BulkLoad(pool, []Item{{Key: []byte("a")}, {Key: []byte("a")}}); err == nil {
		t.Error("duplicate keys accepted")
	}
	if _, err := BulkLoad(pool, []Item{{Key: nil, Value: []byte("v")}}); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := BulkLoad(pool, []Item{{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 512)}}); err == nil {
		t.Error("oversized entry accepted")
	}
}

// TestBulkLoadThenMutate checks that a bulk-built tree accepts the full
// mutation and scan API afterwards: inserts split its packed leaves
// correctly and deletes behave as on an Upsert-built tree.
func TestBulkLoadThenMutate(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	items := bulkItems(1000, 8)
	tree, err := BulkLoad(pool, items)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	// Interleave inserts of fresh keys with deletes of loaded ones.
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			k := []byte(fmt.Sprintf("key%08d-x", rng.Intn(1000)))
			if err := tree.Put(k, []byte("new")); err != nil {
				t.Fatal(err)
			}
		} else {
			k := items[rng.Intn(1000)].Key
			if _, err := tree.Delete(k); err != nil {
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

// TestUpsertBatchEquivalence checks that UpsertBatch leaves the tree in
// exactly the state sequential Upserts produce, including duplicate keys in
// the batch (last occurrence wins) and replacements of existing keys.
func TestUpsertBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seqTree, seqPool := newTestTree(t, 512, 64)
	batTree, batPool := newTestTree(t, 512, 64)

	// Pre-populate both with the same base content.
	base := bulkItems(600, 8)
	for _, it := range base {
		if err := seqTree.Put(it.Key, it.Value); err != nil {
			t.Fatal(err)
		}
		if err := batTree.Put(it.Key, it.Value); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(300)
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
		seqInserted := 0
		for _, it := range batch {
			ins, err := seqTree.Upsert(it.Key, it.Value)
			if err != nil {
				t.Fatal(err)
			}
			if ins {
				seqInserted++
			}
		}
		batInserted, err := batTree.UpsertBatch(append([]Item(nil), batch...))
		if err != nil {
			t.Fatal(err)
		}
		if batInserted != seqInserted {
			t.Fatalf("round %d: UpsertBatch inserted %d, sequential inserted %d", round, batInserted, seqInserted)
		}
		if seqTree.Len() != batTree.Len() {
			t.Fatalf("round %d: Len %d vs %d", round, seqTree.Len(), batTree.Len())
		}
	}
	sk, sv := collectAll(t, seqTree)
	bk, bv := collectAll(t, batTree)
	if len(sk) != len(bk) {
		t.Fatalf("key counts differ: %d vs %d", len(sk), len(bk))
	}
	for i := range sk {
		if !bytes.Equal(sk[i], bk[i]) || !bytes.Equal(sv[i], bv[i]) {
			t.Fatalf("entry %d differs: (%q,%q) vs (%q,%q)", i, sk[i], sv[i], bk[i], bv[i])
		}
	}
	if err := batTree.CheckInvariants(); err != nil {
		t.Fatalf("batch tree invariants: %v", err)
	}
	if err := seqPool.CheckPins(); err != nil {
		t.Errorf("seq pins: %v", err)
	}
	if err := batPool.CheckPins(); err != nil {
		t.Errorf("batch pins: %v", err)
	}
}

// TestDeleteBatchEquivalence checks DeleteBatch against sequential Deletes,
// including keys that are absent.
func TestDeleteBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqTree, _ := newTestTree(t, 512, 64)
	batTree, batPool := newTestTree(t, 512, 64)
	base := bulkItems(800, 8)
	for _, it := range base {
		if err := seqTree.Put(it.Key, it.Value); err != nil {
			t.Fatal(err)
		}
		if err := batTree.Put(it.Key, it.Value); err != nil {
			t.Fatal(err)
		}
	}
	var keys [][]byte
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key%08d", rng.Intn(1200)) // ~1/3 absent
		keys = append(keys, []byte(k))
	}
	seqRemoved := 0
	for _, k := range keys {
		ok, err := seqTree.Delete(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			seqRemoved++
		}
	}
	batRemoved, err := batTree.DeleteBatch(append([][]byte(nil), keys...))
	if err != nil {
		t.Fatal(err)
	}
	if batRemoved != seqRemoved {
		t.Fatalf("DeleteBatch removed %d, sequential removed %d", batRemoved, seqRemoved)
	}
	sk, _ := collectAll(t, seqTree)
	bk, _ := collectAll(t, batTree)
	if len(sk) != len(bk) {
		t.Fatalf("key counts differ: %d vs %d", len(sk), len(bk))
	}
	for i := range sk {
		if !bytes.Equal(sk[i], bk[i]) {
			t.Fatalf("entry %d differs: %q vs %q", i, sk[i], bk[i])
		}
	}
	if err := batTree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := batPool.CheckPins(); err != nil {
		t.Errorf("pins: %v", err)
	}
}

// TestUpsertBatchVariedSizes drives UpsertBatch with values of varying size
// so replacements change leaf occupancy in both directions and some
// replacements overflow into the split fallback.
func TestUpsertBatchVariedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqTree, _ := newTestTree(t, 512, 256)
	batTree, _ := newTestTree(t, 512, 256)
	for round := 0; round < 15; round++ {
		n := 1 + rng.Intn(120)
		batch := make([]Item, n)
		for i := range batch {
			batch[i] = Item{
				Key:   []byte(fmt.Sprintf("k%06d", rng.Intn(400))),
				Value: bytes.Repeat([]byte{'v'}, rng.Intn(80)),
			}
		}
		for _, it := range batch {
			if _, err := seqTree.Upsert(it.Key, it.Value); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := batTree.UpsertBatch(append([]Item(nil), batch...)); err != nil {
			t.Fatal(err)
		}
	}
	sk, sv := collectAll(t, seqTree)
	bk, bv := collectAll(t, batTree)
	if len(sk) != len(bk) {
		t.Fatalf("key counts differ: %d vs %d", len(sk), len(bk))
	}
	for i := range sk {
		if !bytes.Equal(sk[i], bk[i]) || !bytes.Equal(sv[i], bv[i]) {
			t.Fatalf("entry %d differs", i)
		}
	}
	if err := batTree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadSortedLeavesChain verifies the leaf chain of a bulk-built
// tree is strictly sorted end to end (checkLeafChain covers links; this
// asserts the cursor order matches the input run exactly).
func TestBulkLoadSortedLeavesChain(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 64)
	items := bulkItems(1234, 4)
	tree, err := BulkLoad(pool, items)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = tree.Ascend(func(k, v []byte) bool {
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
