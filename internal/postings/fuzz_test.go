package postings

import (
	"bytes"
	"errors"
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
	s := openSeek(t, r)
	// Exactly one block's worth: the decoder has consumed the first body and
	// not yet looked at the second header.
	if n, err := s.NextBatch(make([]Entry, blockCap)); err != nil || n != blockCap {
		t.Fatalf("first block: n=%d err=%v", n, err)
	}
	return len(data) - r.Len() - s.br.avail()
}

func fuzzSeeds(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(31))
	var seeds [][]byte

	// One valid blob per layout, a few blocks each: the engine minimizes
	// every interesting input by re-running it, so small seeds keep it fast.
	id := writeList(t, LayoutID, nil, idEntries(genDocs(rng, 3*blockCap+17, true), nil))
	var idTerm []Entry
	for _, d := range genDocs(rng, 3*blockCap+5, false) {
		idTerm = append(idTerm, Entry{Doc: d, TermScore: float32(rng.Intn(40)) / 8})
	}
	docs, scores := genScorePostings(rng, 2*blockCap+9, fuzzScoreDir)
	valid := [][]byte{id, writeList(t, LayoutIDTerm, nil, idTerm), writeList(t, LayoutScore, fuzzScoreDir, scoreEntries(docs, scores))}
	for _, withTerm := range []bool{false, true} {
		es, _ := genChunks(rng, 3*blockCap, withTerm)
		valid = append(valid, writeList(t, chunkLayout(withTerm), nil, es))
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
	seeds = append(seeds, []byte{blockMagic, blockVersion<<4 | byte(LayoutID), 3, 5, 1, 10, 6, 5, 1, 10, 2, 1, 0})
	// A score rank outside the directory, in a header and in a body.
	seeds = append(seeds,
		[]byte{blockMagic, blockVersion<<4 | byte(LayoutScore), 1, 1, 9, 9, 4, 1, 1, 1, 2, 1, 7},
		[]byte{blockMagic, blockVersion<<4 | byte(LayoutScore), 1, 1, 1, 1, 6, 1, 1, 1, 2, 9, 7})
	return seeds
}

// outOfOrder is the writer's rejection rule: cur may not follow prev.
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

// FuzzBlockList feeds arbitrary bytes to Open for every layout, drains
// one copy with NextBatch and, for the ID layouts, a second after one seek.
// The decoder may refuse the bytes at any point; what it does return is at
// most the count its header records, in list order, the first one after a
// seek at or past the target.
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
			if seek == nil {
				continue
			}
			if err := seek(DocID(target)); err != nil {
				continue
			}
			if first, n := drainChecked(t, l.name+" seek", it, max); n > 0 && first.Doc < DocID(target) {
				t.Fatalf("%s: seek to %d landed on %+v", l.name, target, first)
			}
		}
	})
}

// FuzzBlockWriter feeds arbitrary postings to a Writer of each layout: the
// first byte picks the layout, every following triple is a posting — a
// signed step down from the last accepted posting's key, a signed step up
// from its document and a term weight.  A posting out of the layout's list
// order must be refused with ErrOrder and a negative document refused; the
// accepted ones must decode through Open to exactly what was added, and on
// the ID layouts a SeekDoc to target must land where a linear scan does.
func FuzzBlockWriter(f *testing.F) {
	for l := byte(0); l < 5; l++ {
		seed := []byte{l}
		for i := 0; i < blockCap+20; i++ {
			step := byte(0)
			if i%40 == 39 {
				step = 1
			}
			seed = append(seed, step, byte(1+i%7), byte(i%5))
		}
		f.Add(seed, uint16(300))
		f.Add([]byte{l, 0, 3, 1, 0, 0xfe, 2, 0xff, 4, 3, 1, 0x80, 0}, uint16(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, target uint16) {
		if len(data) == 0 {
			return
		}
		layout := Layout(1 + data[0]%5)
		// The score steps are hundreds, so keys fall in and out of
		// fuzzScoreDir; chunk IDs step by ones.
		keyUnit, last := 1.0, Entry{Doc: 0, SortKey: 20}
		if layout == LayoutScore {
			keyUnit, last.SortKey = 100, 1000
		}
		w := NewWriter(layout, fuzzScoreDir)
		var added []Entry
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			e := Entry{
				Doc:       last.Doc + DocID(int8(rest[1])),
				SortKey:   last.SortKey - keyUnit*float64(int8(rest[0])>>4),
				TermScore: float32(rest[2]) / 8,
			}
			// The posting as its layout stores it.
			if !layout.withTerm() {
				e.TermScore = 0
			}
			if layout == LayoutID || layout == LayoutIDTerm {
				e.SortKey = 0
			}
			err := w.Add(e)
			switch {
			case e.Doc < 0:
				if err == nil {
					t.Fatalf("negative doc %d accepted", e.Doc)
				}
			case len(added) > 0 && outOfOrder(last, e):
				if !errors.Is(err, ErrOrder) {
					t.Fatalf("%+v after %+v: %v, want ErrOrder", e, last, err)
				}
			case err != nil:
				t.Fatalf("%+v after %+v refused: %v", e, last, err)
			default:
				added = append(added, e)
				last = e
			}
		}
		if w.Len() != len(added) {
			t.Fatalf("Len %d, %d accepted", w.Len(), len(added))
		}
		blob := w.Bytes()
		it, err := Open(bytes.NewReader(blob), fuzzScoreDir, layout)
		if err != nil {
			t.Fatal(err)
		}
		requireSameEntries(t, added, collectAll(t, it), "decoded list")
		if layout != LayoutID && layout != LayoutIDTerm || len(added) == 0 {
			return
		}
		s := openSeek(t, bytes.NewReader(blob))
		if err := s.SeekDoc(DocID(target)); err != nil {
			t.Fatal(err)
		}
		i := 0
		for i < len(added) && added[i].Doc < DocID(target) {
			i++
		}
		requireSameEntries(t, added[i:], collectAll(t, s), "after SeekDoc")
	})
}
