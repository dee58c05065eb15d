package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"svrdb/internal/storage/pagefile"
)

// Property-based tests: the tree must behave exactly like a sorted map under
// arbitrary operation sequences, and its structural invariants must hold
// afterwards.

type treeOp struct {
	Kind  uint8 // 0 = put, 1 = delete, 2 = get
	Key   uint16
	Value uint8
}

func TestTreeMatchesSortedMapProperty(t *testing.T) {
	f := func(ops []treeOp) bool {
		tree, _ := newTestTree(t, 512, 128)
		oracle := map[string]string{}
		for _, op := range ops {
			key := fmt.Sprintf("k%05d", op.Key)
			switch op.Kind % 3 {
			case 0:
				val := fmt.Sprintf("v%d", op.Value)
				if err := put(tree, []byte(key), []byte(val)); err != nil {
					return false
				}
				oracle[key] = val
			case 1:
				ok, err := del(tree, []byte(key))
				if err != nil {
					return false
				}
				_, existed := oracle[key]
				if ok != existed {
					return false
				}
				delete(oracle, key)
			default:
				v, ok, err := tree.Get([]byte(key))
				if err != nil {
					return false
				}
				want, existed := oracle[key]
				if ok != existed || (existed && string(v) != want) {
					return false
				}
			}
		}
		if tree.Len() != len(oracle) {
			return false
		}
		// Full ascending scan must equal the sorted oracle.
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		good := true
		tree.View().Ascend(func(k, v []byte) bool {
			if i >= len(keys) || string(k) != keys[i] || string(v) != oracle[keys[i]] {
				good = false
				return false
			}
			i++
			return true
		})
		if !good || i != len(keys) {
			return false
		}
		return tree.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRangeScanMatchesOracleProperty checks the tree's range readers
// against a sorted-key oracle over random [start, end) ranges, nil bounds
// included: the push scan, and the pull cursor walked with More and Next
// interleaved and stopped at a random point (mostly mid-leaf), followed by
// a cursor over a fresh range, which the pool hands back the stopped
// cursor for.  No page may stay pinned between calls.  The concurrent leg
// walks one sealed copy-on-write view through pooled cursors from several
// goroutines while the writer rewrites the tree underneath.
func TestRangeScanMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tree, pool := newTestTree(t, 512, 256)
	oracle := map[string]bool{}
	for i := 0; i < 1500; i++ {
		key := fmt.Sprintf("k%05d", rng.Intn(5000))
		oracle[key] = true
		if err := put(tree, []byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// randomRange draws [lo, hi) with a nil bound one time in eight.
	randomRange := func() (lo, hi []byte) {
		a, b := fmt.Sprintf("k%05d", rng.Intn(5000)), fmt.Sprintf("k%05d", rng.Intn(5000))
		if a > b {
			a, b = b, a
		}
		if rng.Intn(8) > 0 {
			lo = []byte(a)
		}
		if rng.Intn(8) > 0 {
			hi = []byte(b)
		}
		return lo, hi
	}
	inRange := func(lo, hi []byte) []string {
		var want []string
		for _, k := range keys {
			if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
				want = append(want, k)
			}
		}
		return want
	}
	checkPins := func() {
		t.Helper()
		if err := pool.CheckPins(); err != nil {
			t.Fatal(err)
		}
	}
	// walk pulls up to stop keys through a cursor over [lo, hi), asking More
	// again 0-2 times before each Next, and closes it.
	walk := func(lo, hi []byte, stop int) []string {
		t.Helper()
		c := tree.View().Cursor(lo, hi)
		// The bounds were copied: the caller may reuse its buffers.
		for _, b := range [][]byte{lo, hi} {
			for i := range b {
				b[i] = 0xFF
			}
		}
		var got []string
		for len(got) < stop {
			more := c.More()
			for r := rng.Intn(3); r > 0; r-- {
				if c.More() != more {
					t.Fatal("More changed its answer without a Next")
				}
			}
			checkPins()
			if !more {
				break
			}
			k, _ := c.Next()
			checkPins()
			got = append(got, string(k))
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		return got
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d keys, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s mismatch at %d: %s vs %s", what, i, got[i], want[i])
			}
		}
	}

	for trial := 0; trial < 200; trial++ {
		lo, hi := randomRange()
		want := inRange(lo, hi)
		what := fmt.Sprintf("range [%q,%q)", lo, hi)
		var got []string
		if err := tree.View().AscendRange(lo, hi, func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		same("AscendRange "+what, got, want)
		checkPins()
		stop := rng.Intn(len(want) + 2)
		same("stopped cursor "+what, walk(lo, hi, stop), want[:min(stop, len(want))])
		lo, hi = randomRange()
		want = inRange(lo, hi)
		same(fmt.Sprintf("pooled cursor [%q,%q)", lo, hi), walk(lo, hi, len(want)+1), want)
	}

	t.Run("concurrent", func(t *testing.T) {
		tree, pool := newTestTree(t, 512, 256)
		// Retired pages are never recycled, so the sealed view stays whole.
		tree.EnableCOW(func(pagefile.PageID) {})
		const n = 1500
		for i := 0; i < n; i++ {
			if err := put(tree, cowKey(2*i), cowVal(2*i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		tree.Seal()
		v := tree.View()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		writing := make(chan struct{}) // closed when the writer is done
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				// Walk for as long as the writer writes, and 50 times at least.
				for trial := 0; ; trial++ {
					if trial >= 50 {
						select {
						case <-writing:
							return
						default:
						}
					}
					a := rng.Intn(2*n + 2)
					b := a + rng.Intn(2*n+2-a)
					first, end := (a+1)/2, min((b+1)/2, n) // the sealed keys 2i in [a, b)
					count := max(end-first, 0)
					stop := rng.Intn(count + 2)
					c := v.Cursor(cowKey(a), cowKey(b))
					got := 0
					for ; got < stop && c.More(); got++ {
						k, val := c.Next()
						if i := first + got; !bytes.Equal(k, cowKey(2*i)) || !bytes.Equal(val, cowVal(2*i, 0)) {
							errs <- fmt.Errorf("cursor [%d,%d) entry %d = %s=%s, want %s", a, b, got, k, val, cowKey(2*i))
							c.Close()
							return
						}
					}
					if err := c.Err(); err != nil {
						errs <- err
					} else if got != min(stop, count) {
						errs <- fmt.Errorf("cursor [%d,%d) ended after %d keys, want %d", a, b, got, min(stop, count))
					}
					c.Close()
				}
			}(int64(g))
		}
		// The writer: same-length patches, deletes, inserts between the
		// sealed keys (splits), sealing now and then so every round copies.
		wrng := rand.New(rand.NewSource(7))
		for round := 0; round < 60; round++ {
			var items []Item
			for i := wrng.Intn(7); i < 2*n; i += 1 + wrng.Intn(40) {
				items = append(items, Item{Key: cowKey(i), Value: cowVal(i, round+1)})
			}
			if _, err := tree.UpsertBatch(items); err != nil {
				t.Fatal(err)
			}
			var dels [][]byte
			for i := 2 * wrng.Intn(50); i < 2*n; i += 2 * (1 + wrng.Intn(60)) {
				dels = append(dels, cowKey(i))
			}
			if _, err := tree.DeleteBatch(dels); err != nil {
				t.Fatal(err)
			}
			if round%4 == 0 {
				tree.Seal()
			}
		}
		close(writing)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if err := pool.CheckPins(); err != nil {
			t.Error(err)
		}
	})
}

func TestPrefixEndEdgeCases(t *testing.T) {
	cases := []struct {
		prefix []byte
		want   []byte
	}{
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		got := PrefixEnd(c.prefix)
		if !bytes.Equal(got, c.want) {
			t.Errorf("PrefixEnd(%v) = %v, want %v", c.prefix, got, c.want)
		}
	}
}
