package btree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// newTestTree builds a tree over a small page size so that splits happen
// with modest numbers of keys, exercising multi-level structure.
func newTestTree(t testing.TB, pageSize, poolPages int) (*Tree, *buffer.Pool) {
	t.Helper()
	file := pagefile.MustNewMem(pageSize)
	pool := buffer.MustNew(file, poolPages)
	tree, err := New(pool)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree, pool
}

// put writes one key as a one-item batch.
func put(tr *Tree, key, value []byte) error {
	_, err := tr.UpsertBatch([]Item{{Key: key, Value: value}})
	return err
}

// del removes one key as a one-item batch and reports whether it was
// present.
func del(tr *Tree, key []byte) (bool, error) {
	n, err := tr.DeleteBatch([][]byte{key})
	return n == 1, err
}

func TestPutGetSingle(t *testing.T) {
	tree, _ := newTestTree(t, 512, 64)
	if err := put(tree, []byte("movie:42"), []byte("American Thrift")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := tree.Get([]byte("movie:42"))
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v, %v", v, ok, err)
	}
	if string(v) != "American Thrift" {
		t.Errorf("Get = %q, want %q", v, "American Thrift")
	}
	if _, ok, _ := tree.Get([]byte("movie:43")); ok {
		t.Error("Get of absent key reported present")
	}
}

func TestPutReplace(t *testing.T) {
	tree, _ := newTestTree(t, 512, 64)
	key := []byte("doc")
	if err := put(tree, key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := put(tree, key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1 {
		t.Errorf("Len = %d after replace, want 1", tree.Len())
	}
	v, _, _ := tree.Get(key)
	if string(v) != "new" {
		t.Errorf("Get = %q, want %q", v, "new")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	tree, _ := newTestTree(t, 512, 64)
	if err := put(tree, nil, []byte("v")); err == nil {
		t.Fatal("Put with empty key succeeded, want error")
	}
}

func TestEntryTooLarge(t *testing.T) {
	tree, _ := newTestTree(t, 512, 64)
	big := bytes.Repeat([]byte{'x'}, 1024)
	if err := put(tree, []byte("k"), big); err == nil {
		t.Fatal("oversized value accepted, want error")
	}
}

func TestManyInsertsAndSplits(t *testing.T) {
	tree, pool := newTestTree(t, 512, 256)
	const n = 2000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key%06d", i))
		val := []byte(fmt.Sprintf("value-%d", i*i))
		if err := put(tree, key, val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if tree.Len() != n {
		t.Fatalf("Len = %d, want %d", tree.Len(), n)
	}
	h, err := tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Errorf("Height = %d; expected splits to produce a multi-level tree", h)
	}
	for i := 0; i < n; i += 37 {
		key := []byte(fmt.Sprintf("key%06d", i))
		v, ok, err := tree.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get %s: %v %v", key, ok, err)
		}
		want := fmt.Sprintf("value-%d", i*i)
		if string(v) != want {
			t.Errorf("Get %s = %q, want %q", key, v, want)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
	if pool.PinnedPages() != 0 {
		t.Errorf("pool has %d pinned pages after operations, want 0", pool.PinnedPages())
	}
}

func TestRandomInsertLookupAgainstMap(t *testing.T) {
	tree, _ := newTestTree(t, 512, 512)
	rng := rand.New(rand.NewSource(11))
	oracle := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("k%08d", rng.Intn(3000))
		v := fmt.Sprintf("v%d", rng.Int63())
		oracle[k] = v
		if err := put(tree, []byte(k), []byte(v)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if tree.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(oracle))
	}
	for k, want := range oracle {
		v, ok, err := tree.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get %s = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
}

func TestDelete(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	for i := 0; i < 500; i++ {
		if err := put(tree, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := del(tree, []byte("k0100"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, found, _ := tree.Get([]byte("k0100")); found {
		t.Error("deleted key still present")
	}
	ok, err = del(tree, []byte("k0100"))
	if err != nil || ok {
		t.Errorf("second Delete = %v, %v; want false, nil", ok, err)
	}
	if tree.Len() != 499 {
		t.Errorf("Len = %d, want 499", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
}

func TestAscendOrder(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	keys := rand.New(rand.NewSource(3)).Perm(1000)
	for _, k := range keys {
		if err := put(tree, []byte(fmt.Sprintf("k%05d", k)), []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	if err := tree.View().Ascend(func(k, v []byte) bool {
		seen = append(seen, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1000 {
		t.Fatalf("Ascend visited %d keys, want 1000", len(seen))
	}
	if !sort.StringsAreSorted(seen) {
		t.Error("Ascend did not visit keys in sorted order")
	}
}

func TestAscendRangeBounds(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	for i := 0; i < 100; i++ {
		if err := put(tree, []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	err := tree.View().AscendRange([]byte("k010"), []byte("k020"), func(k, v []byte) bool {
		seen = append(seen, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("range scan returned %d keys, want 10: %v", len(seen), seen)
	}
	if seen[0] != "k010" || seen[9] != "k019" {
		t.Errorf("range scan bounds wrong: first %s last %s", seen[0], seen[9])
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	for i := 0; i < 100; i++ {
		if err := put(tree, []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := tree.View().Ascend(func(k, v []byte) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early-stopped scan visited %d keys, want 5", count)
	}
}

func TestAscendPrefix(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	terms := []string{"news", "newt", "new", "golden", "gate"}
	for _, term := range terms {
		for i := 0; i < 5; i++ {
			key := append([]byte(term+"\x00"), byte(i))
			if err := put(tree, key, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := 0
	if err := tree.View().AscendPrefix([]byte("news\x00"), func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("prefix scan for news returned %d entries, want 5", count)
	}
}

func TestDeleteThenScan(t *testing.T) {
	tree, _ := newTestTree(t, 512, 256)
	for i := 0; i < 300; i++ {
		if err := put(tree, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i += 2 {
		if _, err := del(tree, []byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := tree.View().Ascend(func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 150 {
		t.Errorf("scan after deletes visited %d keys, want 150", count)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
}

func TestScanEmptyTree(t *testing.T) {
	tree, _ := newTestTree(t, 512, 64)
	count := 0
	if err := tree.View().Ascend(func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("scan of empty tree visited %d keys", count)
	}
}

func TestSmallBufferPoolStillCorrect(t *testing.T) {
	// A pool with very few frames forces constant eviction and re-reads,
	// verifying that nodes survive round trips through the page file.
	tree, pool := newTestTree(t, 512, 8)
	const n = 1500
	for i := 0; i < n; i++ {
		if err := put(tree, []byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := pool.FlushOrdered(); err != nil {
		t.Fatal(err)
	}
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 101 {
		v, ok, err := tree.Get([]byte(fmt.Sprintf("k%06d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get after evict-all failed for %d: %q %v %v", i, v, ok, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants: %v", err)
	}
}

func TestBinaryKeysWithOrderedEncoding(t *testing.T) {
	tree, _ := newTestTree(t, 1024, 256)
	// Keys are (score descending, docID) as the Score method lays out its
	// clustered long list; verify descending scan yields descending scores.
	type posting struct {
		score float64
		doc   uint64
	}
	rng := rand.New(rand.NewSource(5))
	var postings []posting
	for i := 0; i < 500; i++ {
		postings = append(postings, posting{score: rng.Float64() * 100000, doc: uint64(i)})
	}
	for _, p := range postings {
		key := make([]byte, 0, 16)
		key = appendDescFloat(key, p.score)
		key = appendUint64(key, p.doc)
		if err := put(tree, key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	prev := 1e18
	count := 0
	if err := tree.View().Ascend(func(k, v []byte) bool {
		score := descFloatFrom(k)
		if score > prev {
			t.Fatalf("scores not descending: %v after %v", score, prev)
		}
		prev = score
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(postings) {
		t.Errorf("visited %d postings, want %d", count, len(postings))
	}
}

// Helpers mirroring codec's ordered encodings without importing it (keeps
// this package's tests self-contained at the storage layer).
func appendDescFloat(dst []byte, f float64) []byte {
	bits := uint64(0)
	if f < 0 {
		panic("test helper only supports non-negative scores")
	}
	bits = ^(floatBits(f) | (1 << 63))
	return appendUint64(dst, bits)
}

func descFloatFrom(key []byte) float64 {
	u := uint64(0)
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(key[i])
	}
	return floatFromBits((^u) &^ (1 << 63))
}

func appendUint64(dst []byte, v uint64) []byte {
	for shift := 56; shift >= 0; shift -= 8 {
		dst = append(dst, byte(v>>uint(shift)))
	}
	return dst
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }
