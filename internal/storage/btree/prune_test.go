package btree

import (
	"fmt"
	"math/rand"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// fillSequential inserts n fixed-width entries and returns the key set.
func fillSequential(t *testing.T, tree *Tree, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fmt.Sprintf("doc:%05d", i))
		if err := tree.Put(keys[i], fixedVal("fill", i)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestDeleteUnlinksEmptiedLeaves empties a contiguous middle range spanning
// several leaves and verifies every traversal machinery skips the dead
// region: ascending and descending scans, bounded ranges over the hole, and
// point probes.
func TestDeleteUnlinksEmptiedLeaves(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 256)
	tree := MustNew(pool)
	keys := fillSequential(t, tree, 600)

	lo, hi := 150, 450
	for i := lo; i < hi; i++ {
		ok, err := tree.Delete(keys[i])
		if err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("Delete %d reported absent", i)
		}
	}
	if file.FreePages() == 0 {
		t.Fatal("emptying a 300-key range recycled no pages")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	survivors := func() []int {
		var out []int
		for i := 0; i < len(keys); i++ {
			if i < lo || i >= hi {
				out = append(out, i)
			}
		}
		return out
	}()
	// Ascend sees exactly the survivors, in order.
	var got []string
	if err := tree.Ascend(func(k, v []byte) bool { got = append(got, string(k)); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(survivors) {
		t.Fatalf("Ascend returned %d keys, want %d", len(got), len(survivors))
	}
	for j, i := range survivors {
		if got[j] != string(keys[i]) {
			t.Fatalf("Ascend[%d] = %q, want %q", j, got[j], keys[i])
		}
	}
	// A range scan entirely inside the emptied hole yields nothing.
	count := 0
	if err := tree.AscendRange(keys[lo], keys[hi-1], func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("AscendRange over emptied hole returned %d keys", count)
	}
	// A range scan straddling the hole sees only the survivors at its edges.
	var straddle []string
	if err := tree.AscendRange(keys[lo-2], keys[hi+2], func(k, v []byte) bool {
		straddle = append(straddle, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{string(keys[lo-2]), string(keys[lo-1]), string(keys[hi]), string(keys[hi+1])}
	if len(straddle) != len(want) {
		t.Fatalf("straddling AscendRange = %v, want %v", straddle, want)
	}
	for i := range want {
		if straddle[i] != want[i] {
			t.Fatalf("straddling AscendRange[%d] = %q, want %q", i, straddle[i], want[i])
		}
	}
	// Point probes: deleted keys absent, survivors present, including through
	// the locality-aware Probe cursor walking across the hole.
	probe := tree.NewProbe()
	for i := 0; i < len(keys); i++ {
		_, ok, err := probe.Get(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if wantOK := i < lo || i >= hi; ok != wantOK {
			t.Fatalf("Probe.Get(%s) = %v, want %v", keys[i], ok, wantOK)
		}
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestDeleteAllKeysEmptiesTree deletes every key and checks the tree
// collapses to a single empty leaf with everything else recycled, then
// accepts fresh inserts.
func TestDeleteAllKeysEmptiesTree(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 256)
	tree := MustNew(pool)
	keys := fillSequential(t, tree, 500)
	allocated := file.NumPages()

	// Delete in a shuffled order so leaves empty in arbitrary sequence.
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if _, err := tree.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tree.Len())
	}
	count := 0
	if err := tree.Ascend(func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("Ascend over empty tree returned %d keys", count)
	}
	// All pages but the root leaf should be back on the free list.
	if free := uint64(file.FreePages()); free != allocated-1 {
		t.Errorf("free pages = %d, want %d (all but the root)", free, allocated-1)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The emptied tree keeps working.
	fillSequential(t, tree, 100)
	if tree.Len() != 100 {
		t.Fatalf("Len = %d after refill, want 100", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestDeleteReinsertChurnBounded runs the paper's core delete/reinsert
// workload shape for many rounds and asserts the page file stops growing:
// freed pages are recycled instead of leaking.
func TestDeleteReinsertChurnBounded(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 256)
	tree := MustNew(pool)
	const n = 400
	fillSequential(t, tree, n)

	var sizeAfterFirstRound uint64
	for round := 0; round < 30; round++ {
		for i := 0; i < n; i++ {
			if _, err := tree.Delete([]byte(fmt.Sprintf("doc:%05d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if err := tree.Put([]byte(fmt.Sprintf("doc:%05d", i)), fixedVal("chrn", round)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			sizeAfterFirstRound = file.NumPages()
		}
	}
	if file.NumPages() > sizeAfterFirstRound {
		t.Errorf("page file grew under churn: %d pages after round 1, %d after round 30",
			sizeAfterFirstRound, file.NumPages())
	}
	if file.Stats().Reuses == 0 {
		t.Error("churn never reused a freed page")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestDeleteBatchPrunesEmptiedLeaves is the DeleteBatch analogue of the
// unlink test: a grouped delete that empties leaves must prune them too.
func TestDeleteBatchPrunesEmptiedLeaves(t *testing.T) {
	file := pagefile.MustNewMem(512)
	pool := buffer.MustNew(file, 256)
	tree := MustNew(pool)
	keys := fillSequential(t, tree, 600)

	var batch [][]byte
	for i := 100; i < 500; i++ {
		batch = append(batch, keys[i])
	}
	removed, err := tree.DeleteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 400 {
		t.Fatalf("DeleteBatch removed %d, want 400", removed)
	}
	if file.FreePages() == 0 {
		t.Fatal("DeleteBatch emptied leaves but recycled no pages")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tree.Ascend(func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("Ascend after DeleteBatch returned %d keys, want 200", count)
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestDeleteEmptiedRangeThenCursorResume exercises a bounded-range cursor
// walk (the keyedList treeCursor pattern: AscendRange from a resume key)
// across a pruned region.
func TestDeleteEmptiedRangeThenCursorResume(t *testing.T) {
	tree, pool := newTestTree(t, 512, 256)
	keys := fillSequential(t, tree, 400)
	for i := 120; i < 280; i++ {
		if _, err := tree.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Resume-style scan: batches of 16 from an explicit key, as treeCursor
	// refills do.
	var all []string
	next := keys[0]
	for {
		var batch []string
		var resume []byte
		err := tree.AscendRange(next, nil, func(k, v []byte) bool {
			if len(batch) >= 16 {
				resume = append([]byte(nil), k...)
				return false
			}
			batch = append(batch, string(k))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
		if resume == nil {
			break
		}
		next = resume
	}
	if len(all) != 240 {
		t.Fatalf("cursor-style walk saw %d keys, want 240", len(all))
	}
	for j := 1; j < len(all); j++ {
		if all[j-1] >= all[j] {
			t.Fatalf("cursor-style walk out of order at %d: %q >= %q", j, all[j-1], all[j])
		}
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

// TestPruneSpineCollapse empties the whole tree one key at a time with
// invariants checked after every delete, verifying ancestor pruning and the
// final root collapse back to height 1.
func TestPruneSpineCollapse(t *testing.T) {
	tree, pool := newTestTree(t, 512, 256)
	n := 60
	for i := 0; i < n; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("valuevaluevalue")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tree.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	if h, _ := tree.Height(); h != 1 {
		t.Errorf("height after emptying = %d, want 1", h)
	}
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}
