package postings

import (
	"bytes"
	"math/rand"
	"testing"
)

// fuzzScoreDir is the fixed directory the fuzzed score lists resolve ranks
// through.
var fuzzScoreDir = []float64{900, 700, 500, 300}

// firstBlockEnd returns the offset at which the first posting block of the
// ID-layout blob data ends.
func firstBlockEnd(t testing.TB, data []byte) int {
	t.Helper()
	r := bytes.NewReader(data)
	s, err := NewStreamIDList(r)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one block's worth: the decoder has consumed the first body and
	// not yet looked at the second header.
	if n, err := s.NextBatch(make([]Entry, blockCap)); err != nil || n != blockCap {
		t.Fatalf("first block: n=%d err=%v", n, err)
	}
	return len(data) - r.Len() - s.list.br.avail()
}

func fuzzSeeds(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(31))
	var seeds [][]byte

	// One valid blob per layout, a few blocks each: the engine minimizes
	// every interesting input by re-running it, so small seeds keep it fast.
	idb := NewBlockIDListBuilder()
	for _, d := range genDocs(rng, 3*blockCap+17, true) {
		if err := idb.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	id := idb.Bytes()
	itb := NewBlockIDTermListBuilder()
	for _, d := range genDocs(rng, 3*blockCap+5, false) {
		if err := itb.Add(d, float32(rng.Intn(40))/8); err != nil {
			t.Fatal(err)
		}
	}
	docs, scores := genScorePostings(rng, 2*blockCap+9, fuzzScoreDir)
	score := NewBlockScoreListBuilder(fuzzScoreDir)
	for i := range docs {
		if err := score.Add(docs[i], scores[i]); err != nil {
			t.Fatal(err)
		}
	}
	valid := [][]byte{id, itb.Bytes(), score.Bytes()}
	for _, withTerm := range []bool{false, true} {
		cb := NewBlockChunkedListBuilder(withTerm)
		for _, c := range genChunks(rng, 3*blockCap, withTerm) {
			if err := cb.AddChunk(c.cid, c.posts); err != nil {
				t.Fatal(err)
			}
		}
		valid = append(valid, cb.Bytes())
	}
	seeds = append(seeds, valid...)

	// Each cut at a block boundary and mid-body.  The boundary is exact for
	// the ID list; the other layouts are cut at fixed fractions.
	end := firstBlockEnd(t, id)
	seeds = append(seeds, id[:end], id[:end-5])
	for _, v := range valid[1:] {
		seeds = append(seeds, v[:len(v)/2], v[:len(v)-3])
	}

	seeds = append(seeds, hostileBodyLenBlob())
	// A frame of more postings than the list holds.
	seeds = append(seeds, []byte{blockMagic, blockVersion<<4 | layoutID, 3, 5, 1, 10, 6, 5, 1, 10, 2, 1, 0})
	// A score rank outside the directory, in a header and in a body.
	seeds = append(seeds,
		[]byte{blockMagic, blockVersion<<4 | layoutScore, 1, 1, 9, 9, 4, 1, 1, 1, 2, 1, 7},
		[]byte{blockMagic, blockVersion<<4 | layoutScore, 1, 1, 1, 1, 6, 1, 1, 1, 2, 9, 7})
	return seeds
}

// outOfOrder is the builders' rejection rule: cur may not follow prev.
func outOfOrder(prev, cur Entry) bool {
	return cur.SortKey > prev.SortKey || (cur.SortKey == prev.SortKey && cur.Doc <= prev.Doc)
}

// drainChecked drains it and requires either an error or at most max entries
// in list order.
func drainChecked(t *testing.T, what string, it BatchIterator, max int) (first Entry, n int) {
	t.Helper()
	buf := make([]Entry, 61)
	var prev Entry
	for {
		c, err := it.NextBatch(buf)
		if err != nil || c == 0 {
			return first, n
		}
		for _, e := range buf[:c] {
			if n == 0 {
				first = e
			} else if outOfOrder(prev, e) {
				t.Fatalf("%s: entry %d %+v follows %+v", what, n, e, prev)
			}
			if e.Doc < 0 {
				t.Fatalf("%s: entry %d has negative doc %d", what, n, e.Doc)
			}
			prev = e
			n++
		}
		if n > max {
			t.Fatalf("%s: %d entries from a list of %d", what, n, max)
		}
	}
}

// FuzzBlockList feeds arbitrary bytes to every stream constructor, drains
// one copy with NextBatch and a second after one seek.  The decoder may
// refuse the bytes at any point; what it does return is at most Len()
// entries in list order, the first one after a seek at or past the target.
// It never panics, loops, or sizes an allocation by a count it read.
func FuzzBlockList(f *testing.F) {
	for i, seed := range fuzzSeeds(f) {
		f.Add(seed, int64(i*37))
	}
	f.Fuzz(func(t *testing.T, data []byte, target int64) {
		for _, l := range streamKinds {
			it, max, _, err := l.open(data)
			if err != nil {
				continue
			}
			drainChecked(t, l.name+" scan", it, max)

			it, max, seek, err := l.open(data)
			if err != nil {
				t.Fatalf("%s: second open of accepted bytes: %v", l.name, err)
			}
			if err := seek(target); err != nil {
				continue
			}
			if first, n := drainChecked(t, l.name+" seek", it, max); n > 0 && !l.sought(first, target) {
				t.Fatalf("%s: seek to %d landed on %+v", l.name, target, first)
			}
		}
	})
}
