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

func TestPatchBasics(t *testing.T) {
	tree, _ := newTestTree(t, 512, 64)
	key := []byte("doc:0001")
	if ok, err := tree.Patch(key, []byte("v1")); err != nil || ok {
		t.Fatalf("Patch of absent key = %v, %v, want false", ok, err)
	}
	if err := tree.Put(key, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if ok, err := tree.Patch(key, []byte("bbb")); err != nil || ok {
		t.Fatalf("Patch with different length = %v, %v, want false", ok, err)
	}
	if ok, err := tree.Patch(key, []byte("bbbb")); err != nil || !ok {
		t.Fatalf("Patch same length = %v, %v, want true", ok, err)
	}
	if v, _, _ := tree.Get(key); string(v) != "bbbb" {
		t.Errorf("Get after Patch = %q, want %q", v, "bbbb")
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
		if err := tree.Put([]byte(fmt.Sprintf("key:%04d", i)), fixedVal("val", 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if ok, err := tree.Patch([]byte(fmt.Sprintf("key:%04d", i)), fixedVal("new", i)); err != nil || !ok {
			t.Fatalf("Patch key %d = %v, %v", i, ok, err)
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
// parse→reserialize path over random same-length traces: two trees receive
// the identical operation sequence, one with patching disabled, and must end
// byte-for-byte identical under every cursor.  The trace deliberately hits
// leaf-boundary keys and keys emptied by a prior Delete.
func TestUpsertPatchEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			patched, patchedPool := newTestTree(t, 512, 256)
			plain, plainPool := newTestTree(t, 512, 256)
			plain.disablePatch = true

			keys := make([][]byte, 120)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("doc:%05d", i*3))
			}
			apply := func(op func(*Tree) error) {
				if err := op(patched); err != nil {
					t.Fatal(err)
				}
				if err := op(plain); err != nil {
					t.Fatal(err)
				}
			}
			// Seed both trees, forcing several leaves at page size 512.
			for i, k := range keys {
				k, v := k, fixedVal("seed", i)
				apply(func(tr *Tree) error { return tr.Put(k, v) })
			}
			for step := 0; step < 2000; step++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(10) {
				case 0: // delete, so later upserts hit reinsert-after-delete
					apply(func(tr *Tree) error { _, err := tr.Delete(k); return err })
				case 1: // fresh key insert (different length values allowed)
					fresh := []byte(fmt.Sprintf("doc:%05d", rng.Intn(400)))
					v := fixedVal("ins", step)
					apply(func(tr *Tree) error { return tr.Put(fresh, v) })
				default: // same-length rewrite: the patch candidate
					v := fixedVal("upd", step)
					apply(func(tr *Tree) error { return tr.Put(k, v) })
				}
			}
			if patched.Patches() == 0 {
				t.Fatal("patch-enabled tree recorded no patches")
			}
			if plain.Patches() != 0 {
				t.Fatalf("patch-disabled tree recorded %d patches", plain.Patches())
			}
			if patched.Len() != plain.Len() {
				t.Fatalf("Len: patched %d, plain %d", patched.Len(), plain.Len())
			}
			assertSameContents(t, patched, plain)
			if err := patched.CheckInvariants(); err != nil {
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

// TestUpsertBatchPatchEquivalenceProperty does the same for the batched
// writer: replace-only and mixed batches through UpsertBatch must equal the
// patch-disabled tree's sequential application.
func TestUpsertBatchPatchEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	batched, batchedPool := newTestTree(t, 512, 256)
	plain, _ := newTestTree(t, 512, 256)
	plain.disablePatch = true

	var seedItems []Item
	for i := 0; i < 150; i++ {
		seedItems = append(seedItems, Item{
			Key:   []byte(fmt.Sprintf("doc:%05d", i*2)),
			Value: fixedVal("seed", i),
		})
	}
	for _, it := range seedItems {
		if err := plain.Put(it.Key, it.Value); err != nil {
			t.Fatal(err)
		}
		if err := batched.Put(it.Key, it.Value); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 40; round++ {
		var batch []Item
		for j := 0; j < 64; j++ {
			var key []byte
			if rng.Intn(8) == 0 { // occasional fresh insert in the batch
				key = []byte(fmt.Sprintf("doc:%05d", rng.Intn(300)))
			} else {
				key = seedItems[rng.Intn(len(seedItems))].Key
			}
			batch = append(batch, Item{Key: key, Value: fixedVal("rnd", rng.Intn(10000))})
		}
		// UpsertBatch collapses duplicate keys to the last occurrence;
		// sequential application does the same naturally.
		for _, it := range batch {
			if err := plain.Put(it.Key, it.Value); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := batched.UpsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if batched.Patches() == 0 {
		t.Fatal("UpsertBatch recorded no patches on a replace-heavy trace")
	}
	assertSameContents(t, batched, plain)
	if err := batched.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := batchedPool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// assertSameContents fails unless both trees yield identical key/value
// sequences.
func assertSameContents(t *testing.T, a, b *Tree) {
	t.Helper()
	dump := func(tr *Tree) []string {
		var out []string
		if err := tr.Ascend(func(k, v []byte) bool {
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
