package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// cowKey/cowVal build fixed-width test entries so patches stay same-length.
func cowKey(i int) []byte { return []byte(fmt.Sprintf("key:%06d", i)) }
func cowVal(i, gen int) []byte {
	return []byte(fmt.Sprintf("val:%06d:%04d", i, gen))
}

// collectView materializes every key/value pair a view can see.
func collectView(t *testing.T, v View) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := v.Ascend(func(k, val []byte) bool {
		out[string(k)] = string(val)
		return true
	}); err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	return out
}

// TestCOWSealedViewSurvivesMutation is the core snapshot property: a view
// captured at Seal time keeps returning exactly the sealed contents while
// the writer patches, inserts, deletes and splits underneath it.
func TestCOWSealedViewSurvivesMutation(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	var retired []pagefile.PageID
	tree.EnableCOW(func(id pagefile.PageID) { retired = append(retired, id) })

	const n = 400
	for i := 0; i < n; i++ {
		if err := put(tree, cowKey(i), cowVal(i, 0)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	tree.Seal()
	v1 := tree.View()
	want1 := collectView(t, v1)
	if len(want1) != n {
		t.Fatalf("sealed view has %d keys, want %d", len(want1), n)
	}

	// Mutate everything: same-length patches on evens, deletes of every
	// fourth key, fresh inserts beyond the sealed range.
	for i := 0; i < n; i += 2 {
		if err := put(tree, cowKey(i), cowVal(i, 1)); err != nil {
			t.Fatalf("patch Put: %v", err)
		}
	}
	for i := 1; i < n; i += 4 {
		if ok, err := del(tree, cowKey(i)); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	for i := n; i < n+200; i++ {
		if err := put(tree, cowKey(i), cowVal(i, 1)); err != nil {
			t.Fatalf("insert Put: %v", err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after mutation: %v", err)
	}
	if len(retired) == 0 {
		t.Fatal("no pages were retired by COW mutation of a sealed tree")
	}

	// The sealed view is bit-for-bit unchanged, scans and point reads alike.
	got1 := collectView(t, v1)
	if len(got1) != len(want1) {
		t.Fatalf("sealed view now has %d keys, want %d", len(got1), len(want1))
	}
	for k, val := range want1 {
		if got1[k] != val {
			t.Fatalf("sealed view key %q = %q, want %q", k, got1[k], val)
		}
	}
	for i := 0; i < n; i += 37 {
		val, ok, err := v1.Get(nil, cowKey(i))
		if err != nil || !ok {
			t.Fatalf("view Get(%d) = %v, %v", i, ok, err)
		}
		if !bytes.Equal(val, cowVal(i, 0)) {
			t.Fatalf("view Get(%d) = %q, want generation 0", i, val)
		}
	}
	if _, ok, _ := v1.Get(nil, cowKey(n+10)); ok {
		t.Fatal("sealed view sees a key inserted after Seal")
	}

	// The live tree sees the new state.
	for i := 0; i < n; i += 2 {
		val, ok, err := tree.Get(cowKey(i))
		if err != nil || !ok {
			t.Fatalf("live Get(%d) = %v, %v", i, ok, err)
		}
		if !bytes.Equal(val, cowVal(i, 1)) {
			t.Fatalf("live Get(%d) = %q, want generation 1", i, val)
		}
	}
	for i := 1; i < n; i += 4 {
		if _, ok, _ := tree.Get(cowKey(i)); ok {
			t.Fatalf("live tree still has deleted key %d", i)
		}
	}
}

// TestCOWFreshPagesRecycledNotRetired asserts that before the first Seal —
// while no snapshot can reach any page allocated since EnableCOW — mutation
// never feeds the retire hook: superseded fresh pages go straight back to
// the free list.  (The one page predating EnableCOW, the initial empty
// root, is conservatively treated as published and may be retired once.)
func TestCOWFreshPagesRecycledNotRetired(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	var retired []pagefile.PageID
	tree.EnableCOW(func(id pagefile.PageID) { retired = append(retired, id) })
	if err := put(tree, cowKey(0), cowVal(0, 0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	retired = nil // drop the pre-COW initial root
	for i := 1; i < 300; i++ {
		if err := put(tree, cowKey(i), cowVal(i, 0)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < 300; i += 3 {
		if _, err := del(tree, cowKey(i)); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if len(retired) != 0 {
		t.Fatalf("retired %d pages before any Seal: %v", len(retired), retired)
	}
}

// TestCOWBatchOpsPreserveSealedView drives the batched write paths
// (UpsertBatch, DeleteBatch) against a sealed tree and checks the snapshot
// plus the live contents against a shadow map.
func TestCOWBatchOpsPreserveSealedView(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	tree.EnableCOW(func(pagefile.PageID) {})

	shadow := map[string]string{}
	const n = 300
	var items []Item
	for i := 0; i < n; i++ {
		items = append(items, Item{Key: cowKey(i), Value: cowVal(i, 0)})
		shadow[string(cowKey(i))] = string(cowVal(i, 0))
	}
	if _, err := tree.UpsertBatch(items); err != nil {
		t.Fatalf("UpsertBatch: %v", err)
	}
	tree.Seal()
	v1 := tree.View()
	want1 := collectView(t, v1)

	// Batch 1: same-length patch of every key (pure patchRun on promoted
	// clones) plus new inserts.
	var batch []Item
	for i := 0; i < n; i++ {
		batch = append(batch, Item{Key: cowKey(i), Value: cowVal(i, 1)})
		shadow[string(cowKey(i))] = string(cowVal(i, 1))
	}
	for i := n; i < n+100; i++ {
		batch = append(batch, Item{Key: cowKey(i), Value: cowVal(i, 1)})
		shadow[string(cowKey(i))] = string(cowVal(i, 1))
	}
	if _, err := tree.UpsertBatch(batch); err != nil {
		t.Fatalf("UpsertBatch 2: %v", err)
	}

	// Batch 2: delete a swath, including runs that empty whole leaves.
	var dels [][]byte
	for i := 50; i < 250; i++ {
		dels = append(dels, cowKey(i))
		delete(shadow, string(cowKey(i)))
	}
	removed, err := tree.DeleteBatch(dels)
	if err != nil {
		t.Fatalf("DeleteBatch: %v", err)
	}
	if removed != 200 {
		t.Fatalf("DeleteBatch removed %d, want 200", removed)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}

	got1 := collectView(t, v1)
	if len(got1) != len(want1) {
		t.Fatalf("sealed view drifted: %d keys, want %d", len(got1), len(want1))
	}
	for k, val := range want1 {
		if got1[k] != val {
			t.Fatalf("sealed view key %q = %q, want %q", k, got1[k], val)
		}
	}
	live := collectView(t, tree.View())
	if len(live) != len(shadow) {
		t.Fatalf("live tree has %d keys, want %d", len(live), len(shadow))
	}
	for k, val := range shadow {
		if live[k] != val {
			t.Fatalf("live key %q = %q, want %q", k, live[k], val)
		}
	}
	if tree.Len() != len(shadow) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(shadow))
	}
}

// TestCOWViewProbeConsistency checks the snapshot-pinned probe: ascending
// point lookups against a sealed view resolve the sealed values while the
// writer churns.
func TestCOWViewProbeConsistency(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	tree.EnableCOW(func(pagefile.PageID) {})
	const n = 350
	for i := 0; i < n; i++ {
		if err := put(tree, cowKey(i), cowVal(i, 0)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	tree.Seal()
	v1 := tree.View()
	probe := v1.NewProbe()

	rng := rand.New(rand.NewSource(7))
	for gen := 1; gen <= 3; gen++ {
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				if err := put(tree, cowKey(i), cowVal(i, gen)); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
		}
		// Ascending probes, the query engine's access pattern.
		for i := 0; i < n; i++ {
			val, ok, err := probe.Get(cowKey(i))
			if err != nil || !ok {
				t.Fatalf("probe Get(%d) = %v, %v", i, ok, err)
			}
			if !bytes.Equal(val, cowVal(i, 0)) {
				t.Fatalf("gen %d: probe Get(%d) = %q, want sealed value", gen, i, val)
			}
		}
		// A few random jumps to exercise the re-descend path.
		for j := 0; j < 50; j++ {
			i := rng.Intn(n)
			val, ok, err := probe.Get(cowKey(i))
			if err != nil || !ok || !bytes.Equal(val, cowVal(i, 0)) {
				t.Fatalf("random probe Get(%d) = %q, %v, %v", i, val, ok, err)
			}
		}
	}
}

// TestCOWRetireAllCoversEveryPage replaces a sealed tree wholesale and
// checks that RetireAll hands back exactly the sealed tree's page count.
func TestCOWRetireAllCoversEveryPage(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	var retired []pagefile.PageID
	tree.EnableCOW(func(id pagefile.PageID) { retired = append(retired, id) })
	const n = 300
	for i := 0; i < n; i++ {
		if err := put(tree, cowKey(i), cowVal(i, 0)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	tree.Seal()

	// Count reachable pages via a fresh descent of every leaf + internals.
	var pages int
	var count func(id pagefile.PageID) error
	count = func(id pagefile.PageID) error {
		pages++
		n, err := tree.readNode(id)
		if err != nil {
			return err
		}
		if !n.leaf {
			for _, c := range n.children {
				if err := count(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := count(tree.rootID()); err != nil {
		t.Fatalf("walk: %v", err)
	}
	retired = nil // only count RetireAll's own contribution
	if err := tree.RetireAll(); err != nil {
		t.Fatalf("RetireAll: %v", err)
	}
	if len(retired) != pages {
		t.Fatalf("RetireAll retired %d pages, tree had %d", len(retired), pages)
	}
}

// TestCOWCopyReturnsToPreviousPage: once the retire function has freed the
// pages a copy superseded, the node's next copy goes back to the page it
// held one version earlier — the leaf and every ancestor the copy rewires —
// so a durable file logs it as a small delta against an older version of the
// same node.
func TestCOWCopyReturnsToPreviousPage(t *testing.T) {
	tree, pool := newTestTree(t, 512, 256)
	var retired []pagefile.PageID
	tree.EnableCOW(func(id pagefile.PageID) { retired = append(retired, id) })
	const n = 300
	for i := 0; i < n; i++ {
		if err := put(tree, cowKey(i), cowVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated free pages on top of the stack, for a copy that prefers
	// nothing to take.
	file := pool.File()
	var spare []pagefile.PageID
	for i := 0; i < 4; i++ {
		id, err := file.Allocate(pagefile.InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		spare = append(spare, id)
	}
	for _, id := range spare {
		if err := file.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	// pathOf is the root-to-leaf page path of key.
	pathOf := func(key []byte) []pagefile.PageID {
		t.Helper()
		var path []pagefile.PageID
		var upper []byte
		fr, err := tree.descendToLeaf(key, &path, &upper)
		if err != nil {
			t.Fatal(err)
		}
		defer fr.Release()
		return append(path, fr.ID())
	}
	// update rewrites key in a new version and drains it: the superseded
	// pages are freed, as an epoch does once its readers left.
	key := cowKey(n / 2)
	update := func(gen int) []pagefile.PageID {
		t.Helper()
		tree.Seal()
		retired = retired[:0]
		if err := put(tree, key, cowVal(n/2, gen)); err != nil {
			t.Fatal(err)
		}
		for _, id := range retired {
			if err := pool.FreePage(id); err != nil {
				t.Fatal(err)
			}
		}
		return pathOf(key)
	}

	first := pathOf(key)
	if len(first) < 2 {
		t.Fatalf("tree of %d keys has height %d, want at least 2", n, len(first))
	}
	second := update(1)
	for i := range first {
		if second[i] == first[i] {
			t.Fatalf("level %d was not copied: page %d", i, first[i])
		}
	}
	before := file.Stats().PreferredReuses
	third := update(2)
	if !slices.Equal(third, first) {
		t.Errorf("the second copy's path is %v, want the first version's pages %v", third, first)
	}
	if got := file.Stats().PreferredReuses - before; got != uint64(len(first)) {
		t.Errorf("%d allocations got the page they asked for, want %d", got, len(first))
	}
	if v, ok, err := tree.Get(key); err != nil || !ok || !bytes.Equal(v, cowVal(n/2, 2)) {
		t.Errorf("Get = %q, %v, %v; want the latest value", v, ok, err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A copy records where it came from and drops the entry of the page it
	// left; a page freed for good drops its own.
	for i := range third {
		if got, ok := tree.prev[third[i]]; !ok || got != second[i] {
			t.Errorf("level %d: prev[%d] = %d, %v; want %d", i, third[i], got, ok, second[i])
		}
		if _, ok := tree.prev[second[i]]; ok {
			t.Errorf("level %d: page %d, which its node left, keeps its prev entry", i, second[i])
		}
	}
	if err := tree.RetireAll(); err != nil {
		t.Fatal(err)
	}
	if len(tree.prev) != 0 {
		t.Errorf("%d prev entries left after RetireAll", len(tree.prev))
	}
}

// reserveLog is a pagefile.File that keeps its own copy of the reserved set
// by the File contract — Reserve adds, Release drops, an allocation drops
// the page it asked for and the pages it hands out — and counts the copies
// that reserved a page.
type reserveLog struct {
	pagefile.File
	reserved map[pagefile.PageID]bool
	copies   int
}

func newReserveLog(f pagefile.File) *reserveLog {
	return &reserveLog{File: f, reserved: map[pagefile.PageID]bool{}}
}

func (r *reserveLog) Reserve(id pagefile.PageID) {
	r.copies++
	r.reserved[id] = true
	r.File.Reserve(id)
}

func (r *reserveLog) Release(id pagefile.PageID) {
	delete(r.reserved, id)
	r.File.Release(id)
}

func (r *reserveLog) Allocate(prefer pagefile.PageID) (pagefile.PageID, error) {
	id, err := r.File.Allocate(prefer)
	delete(r.reserved, prefer)
	delete(r.reserved, id)
	return id, err
}

func (r *reserveLog) AllocateN(n int) (pagefile.PageID, error) {
	first, err := r.File.AllocateN(n)
	for k := 0; err == nil && k < n; k++ {
		delete(r.reserved, first+pagefile.PageID(k))
	}
	return first, err
}

// check reports a reserved set the file does not agree with, more
// reservations than copies, or a reserved page the tree still uses.
func (r *reserveLog) check(tree *Tree) error {
	if got := r.Stats().ReservedPages; got != uint64(len(r.reserved)) {
		return fmt.Errorf("file holds %d reservations, the contract %d", got, len(r.reserved))
	}
	if len(r.reserved) > r.copies {
		return fmt.Errorf("%d reservations after %d copies", len(r.reserved), r.copies)
	}
	var walk func(id pagefile.PageID) error
	walk = func(id pagefile.PageID) error {
		if r.reserved[id] {
			return fmt.Errorf("page %d is reserved and live in the tree", id)
		}
		n, err := tree.readNode(id)
		if err != nil {
			return err
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(tree.rootID())
}

// TestCOWReservationsEndWithTheirNodes: each copy reserves the page its node
// left, so every reservation is the predecessor of a node the tree holds (a
// prev entry) — at most one per node, since a copy's allocation drops the
// one it asked for —; a prune ends an emptied leaf's node without a copy
// and releases its predecessor, and RetireAll releases every one.
func TestCOWReservationsEndWithTheirNodes(t *testing.T) {
	file := newReserveLog(pagefile.MustNewMem(512))
	pool := buffer.MustNew(file, 256)
	tree := MustNew(pool)
	tree.EnableCOW(func(id pagefile.PageID) {
		if err := pool.FreePage(id); err != nil {
			t.Fatal(err)
		}
	})
	const n = 300
	for i := 0; i < n; i++ {
		if err := put(tree, cowKey(i), cowVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	balanced := func(when string) {
		t.Helper()
		if err := file.check(tree); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		preds := map[pagefile.PageID]bool{}
		for _, p := range tree.prev {
			preds[p] = true
		}
		for id := range file.reserved {
			if !preds[id] {
				t.Fatalf("%s: page %d is reserved but no node's predecessor", when, id)
			}
		}
	}
	balanced("after the build")
	for gen := 1; gen <= 3; gen++ {
		tree.Seal()
		for i := 0; i < n; i += 7 {
			if err := put(tree, cowKey(i), cowVal(i, gen)); err != nil {
				t.Fatal(err)
			}
		}
		balanced(fmt.Sprintf("generation %d", gen))
	}
	// Empty the leaf of key 0, a copied node, in a published version: it is
	// pruned, not copied.
	tree.Seal()
	fr, err := tree.descendToLeaf(cowKey(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := parseNode(fr.ID(), fr.Data())
	fr.Release()
	if err != nil {
		t.Fatal(err)
	}
	pred, ok := tree.prev[leaf.id]
	if !ok || !file.reserved[pred] {
		t.Fatalf("the leaf of key 0 at page %d: predecessor %d (%v) not reserved", leaf.id, pred, ok)
	}
	if _, err := tree.DeleteBatch(leaf.keys); err != nil {
		t.Fatal(err)
	}
	balanced("after the prune")
	if file.reserved[pred] {
		t.Errorf("the pruned leaf's predecessor %d is still reserved", pred)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tree.RetireAll(); err != nil {
		t.Fatal(err)
	}
	if got := file.Stats().ReservedPages; got != 0 || len(tree.prev) != 0 {
		t.Errorf("after RetireAll: %d reservations, %d prev entries; want none", got, len(tree.prev))
	}
}

// TestAppendPagesReadsInternalNodes: the page walk lists exactly the pages
// a parse of every node reaches, each once, and from a cold pool reads only
// the internal nodes and the leftmost leaf — after inserts that split the
// tree into several levels and deletes that prune some of it away.
func TestAppendPagesReadsInternalNodes(t *testing.T) {
	tree, pool := newTestTree(t, 512, 4096)
	const n = 3000
	for i := 0; i < n; i += 100 {
		batch := make([]Item, 0, 100)
		for k := i; k < i+100; k++ {
			batch = append(batch, Item{Key: cowKey(k), Value: cowVal(k, 0)})
		}
		if _, err := tree.UpsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	var gone [][]byte
	for k := 500; k < 1500; k++ {
		gone = append(gone, cowKey(k))
	}
	if _, err := tree.DeleteBatch(gone); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	want := map[pagefile.PageID]bool{}
	internal := 0
	var parse func(id pagefile.PageID)
	parse = func(id pagefile.PageID) {
		nd, err := tree.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = true
		if !nd.leaf {
			internal++
			for _, c := range nd.children {
				parse(c)
			}
		}
	}
	parse(tree.rootID())
	if internal < 3 {
		t.Fatalf("the tree has %d internal nodes; the walk would prove little", internal)
	}

	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	got, err := tree.AppendPages(nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[pagefile.PageID]bool{}
	for _, id := range got {
		if seen[id] || !want[id] {
			t.Fatalf("the walk lists page %d twice or off the tree", id)
		}
		seen[id] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("the walk lists %d pages, the tree has %d", len(seen), len(want))
	}
	if misses := pool.Stats().Misses; misses != uint64(internal+1) {
		t.Errorf("the walk read %d pages, want the %d internal nodes and the leftmost leaf", misses, internal)
	}
}
