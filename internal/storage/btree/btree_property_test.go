package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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
				if err := tree.Put([]byte(key), []byte(val)); err != nil {
					return false
				}
				oracle[key] = val
			case 1:
				ok, err := tree.Delete([]byte(key))
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
		tree.Ascend(func(k, v []byte) bool {
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

func TestRangeScanMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tree, _ := newTestTree(t, 512, 256)
	oracle := map[string]bool{}
	for i := 0; i < 1500; i++ {
		key := fmt.Sprintf("k%05d", rng.Intn(5000))
		oracle[key] = true
		if err := tree.Put([]byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for trial := 0; trial < 100; trial++ {
		lo := fmt.Sprintf("k%05d", rng.Intn(5000))
		hi := fmt.Sprintf("k%05d", rng.Intn(5000))
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []string
		for _, k := range keys {
			if k >= lo && k < hi {
				want = append(want, k)
			}
		}
		var got []string
		if err := tree.AscendRange([]byte(lo), []byte(hi), func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("range [%s,%s): got %d keys, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range [%s,%s) mismatch at %d: %s vs %s", lo, hi, i, got[i], want[i])
			}
		}
	}
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
		got := prefixEnd(c.prefix)
		if !bytes.Equal(got, c.want) {
			t.Errorf("prefixEnd(%v) = %v, want %v", c.prefix, got, c.want)
		}
	}
}
