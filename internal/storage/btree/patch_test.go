package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// fixedVal builds the deterministic 9-byte value of a (key, version) pair —
// the width of a Score-table row — so that every rewrite in these tests is a
// same-length replacement.
func fixedVal(key string, version int) []byte {
	return []byte(fmt.Sprintf("%4.4s-%04d", key, version%10000))
}

// patched reports how many patches one call to write recorded on tr.
func patched(t *testing.T, tr *Tree, write func() error) uint64 {
	t.Helper()
	before := tr.Patches()
	if err := write(); err != nil {
		t.Fatal(err)
	}
	return tr.Patches() - before
}

func TestPatchBasics(t *testing.T) {
	tree, _ := newTestTree(t, 512, 64)
	key := []byte("doc:0001")
	if n := patched(t, tree, func() error { return put(tree, key, []byte("aaaa")) }); n != 0 {
		t.Fatalf("insert of an absent key patched %d times, want 0", n)
	}
	if n := patched(t, tree, func() error { return put(tree, key, []byte("bbb")) }); n != 0 {
		t.Fatalf("replacement with a different length patched %d times, want 0", n)
	}
	if n := patched(t, tree, func() error { return put(tree, key, []byte("ccc")) }); n != 1 {
		t.Fatalf("same-length replacement patched %d times, want 1", n)
	}
	if v, _, _ := tree.Get(key); string(v) != "ccc" {
		t.Errorf("Get after patch = %q, want %q", v, "ccc")
	}
	if tree.Patches() != 1 {
		t.Errorf("Patches = %d, want 1", tree.Patches())
	}
	if tree.Len() != 1 {
		t.Errorf("Len = %d, want 1", tree.Len())
	}
}

func TestPatchSurvivesEviction(t *testing.T) {
	tree, pool := newTestTree(t, 512, 128)
	const n = 300
	for i := 0; i < n; i++ {
		if err := put(tree, []byte(fmt.Sprintf("key:%04d", i)), fixedVal("val", 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		k := []byte(fmt.Sprintf("key:%04d", i))
		if p := patched(t, tree, func() error { return put(tree, k, fixedVal("new", i)) }); p != 1 {
			t.Fatalf("rewrite of key %d patched %d times, want 1", i, p)
		}
	}
	// The patches live only in dirty frames; a full eviction forces them
	// through the page file and back.
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := fixedVal("val", 0)
		if i%7 == 0 {
			want = fixedVal("new", i)
		}
		v, ok, err := tree.Get([]byte(fmt.Sprintf("key:%04d", i)))
		if err != nil || !ok {
			t.Fatalf("Get key %d = %v, %v", i, ok, err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("key %d = %q after eviction, want %q", i, v, want)
		}
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestUpsertPatchEquivalenceProperty pits the patch fast path against the
// parse→reserialize path over random same-length single-key traces: two
// trees receive the identical one-item write sequence, one with patching
// disabled, and must end byte-for-byte identical under every cursor.  The
// trace deliberately hits leaf-boundary keys and keys emptied by a prior
// delete.
func TestUpsertPatchEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			patchedTree, patchedPool := newTestTree(t, 512, 256)
			plain, plainPool := newTestTree(t, 512, 256)
			plain.disablePatch = true

			keys := make([][]byte, 120)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("doc:%05d", i*3))
			}
			apply := func(op func(*Tree) error) {
				if err := op(patchedTree); err != nil {
					t.Fatal(err)
				}
				if err := op(plain); err != nil {
					t.Fatal(err)
				}
			}
			// Seed both trees, forcing several leaves at page size 512.
			for i, k := range keys {
				k, v := k, fixedVal("seed", i)
				apply(func(tr *Tree) error { return put(tr, k, v) })
			}
			for step := 0; step < 2000; step++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(10) {
				case 0: // delete, so later upserts hit reinsert-after-delete
					apply(func(tr *Tree) error { _, err := del(tr, k); return err })
				case 1: // fresh key insert (different length values allowed)
					fresh := []byte(fmt.Sprintf("doc:%05d", rng.Intn(400)))
					v := fixedVal("ins", step)
					apply(func(tr *Tree) error { return put(tr, fresh, v) })
				default: // same-length rewrite: the patch candidate
					v := fixedVal("upd", step)
					apply(func(tr *Tree) error { return put(tr, k, v) })
				}
			}
			if patchedTree.Patches() == 0 {
				t.Fatal("patch-enabled tree recorded no patches")
			}
			if plain.Patches() != 0 {
				t.Fatalf("patch-disabled tree recorded %d patches", plain.Patches())
			}
			if patchedTree.Len() != plain.Len() {
				t.Fatalf("Len: patched %d, plain %d", patchedTree.Len(), plain.Len())
			}
			assertSameContents(t, patchedTree, plain)
			if err := patchedTree.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if err := patchedPool.CheckPins(); err != nil {
				t.Error(err)
			}
			if err := plainPool.CheckPins(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUpsertBatchPatchEquivalenceProperty pits the patch fast path against
// the parse→reserialize path over random same-length traces: two trees
// receive the identical batch sequence, one with patching disabled, and must
// end byte-for-byte identical under every cursor.  Batch sizes run from one
// item (a single-key write) to 64, and the trace deliberately hits
// leaf-boundary keys, keys emptied by a prior delete and fresh inserts.
func TestUpsertBatchPatchEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			batched, batchedPool := newTestTree(t, 512, 256)
			plain, plainPool := newTestTree(t, 512, 256)
			plain.disablePatch = true

			keys := make([][]byte, 150)
			var seedItems []Item
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("doc:%05d", i*2))
				seedItems = append(seedItems, Item{Key: keys[i], Value: fixedVal("seed", i)})
			}
			for _, tr := range []*Tree{batched, plain} {
				if _, err := tr.UpsertBatch(append([]Item(nil), seedItems...)); err != nil {
					t.Fatal(err)
				}
			}
			sizes := []int{1, 1, 1, 4, 64}
			for round := 0; round < 400; round++ {
				n := sizes[rng.Intn(len(sizes))]
				if rng.Intn(10) == 0 { // delete, so later upserts hit reinsert-after-delete
					var dels [][]byte
					for j := 0; j < n; j++ {
						dels = append(dels, keys[rng.Intn(len(keys))])
					}
					for _, tr := range []*Tree{batched, plain} {
						if _, err := tr.DeleteBatch(append([][]byte(nil), dels...)); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				var batch []Item
				for j := 0; j < n; j++ {
					key := keys[rng.Intn(len(keys))]
					if rng.Intn(8) == 0 { // occasional fresh insert in the batch
						key = []byte(fmt.Sprintf("doc:%05d", rng.Intn(300)))
					}
					batch = append(batch, Item{Key: key, Value: fixedVal("rnd", rng.Intn(10000))})
				}
				for _, tr := range []*Tree{batched, plain} {
					if _, err := tr.UpsertBatch(append([]Item(nil), batch...)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if batched.Patches() == 0 {
				t.Fatal("UpsertBatch recorded no patches on a replace-heavy trace")
			}
			if plain.Patches() != 0 {
				t.Fatalf("patch-disabled tree recorded %d patches", plain.Patches())
			}
			if batched.Len() != plain.Len() {
				t.Fatalf("Len: batched %d, plain %d", batched.Len(), plain.Len())
			}
			assertSameContents(t, batched, plain)
			if err := batched.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if err := batchedPool.CheckPins(); err != nil {
				t.Error(err)
			}
			if err := plainPool.CheckPins(); err != nil {
				t.Error(err)
			}
		})
	}
}

// assertSameContents fails unless both trees yield identical key/value
// sequences.
func assertSameContents(t *testing.T, a, b *Tree) {
	t.Helper()
	dump := func(tr *Tree) []string {
		var out []string
		if err := tr.View().Ascend(func(k, v []byte) bool {
			out = append(out, string(k)+"="+string(v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	da, db := dump(a), dump(b)
	if len(da) != len(db) {
		t.Fatalf("%d entries vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("entry %d differs: %q vs %q", i, da[i], db[i])
		}
	}
}
