package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"svrdb/internal/codec"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// This file holds the read path's two ways through a serialized node and the
// reader-owned leaf image built from them.
//
// A node whose entries all have the same widths — every leaf and internal
// node of the fixed-width tables (8-byte keys, 9-byte rows) — is read by
// stride: entry i sits at a computed offset, and one search (fitStride's
// width check, then stride.search: 8-byte keys compared as big-endian
// integers by interpolation, any other width by bisection) serves the leaf
// image, the pinned-leaf lookup (pageLeafLookup) and the internal-node child
// search (pageChildWithUpper).  A leaf read from a pinned frame skips the
// width check when a reader already made it on the frame's current bytes
// (see leafLayout).  Every other node goes through the one walker, which
// steps through the entries in place and bounds-checks each; it also decides
// every error, since the stride path only takes nodes the walker provably
// accepts with the same entries.  Which path a node takes depends only on its
// bytes.  parseNode remains for the write path, which needs a mutable node.

// leafEntry locates one key/value pair inside a serialized leaf: the byte
// ranges [keyOff, keyEnd) and [valOff, valEnd) of the page.
type leafEntry struct {
	keyOff, keyEnd, valOff, valEnd uint32
}

// leafWalker steps through the entries of a serialized leaf without copying
// or allocating.  Every offset it returns has been checked against the page
// length, so hostile page bytes yield an error, never an out-of-range read.
type leafWalker struct {
	id   pagefile.PageID
	data []byte
	off  int // offset of the next entry's key length prefix
	left int // entries not yet returned
}

// walkLeaf positions a walker at the first entry of the serialized leaf in
// data.
func walkLeaf(id pagefile.PageID, data []byte) (leafWalker, error) {
	if len(data) == 0 || data[0] != nodeLeaf {
		return leafWalker{}, fmt.Errorf("btree: page %d is not a leaf", id)
	}
	nKeys, sz, err := codec.Uvarint(data[1:])
	if err != nil {
		return leafWalker{}, fmt.Errorf("btree: page %d: %w", id, err)
	}
	off := 1 + sz
	// An entry occupies at least its two length prefixes, which bounds the
	// count a page can hold (and with it the size of any offset table).
	if off > len(data) || nKeys > uint64(len(data)-off)/2 {
		return leafWalker{}, fmt.Errorf("btree: page %d leaf header claims %d entries in %d bytes", id, nKeys, len(data))
	}
	return leafWalker{id: id, data: data, off: off, left: int(nKeys)}, nil
}

// next returns the location of the next entry; ok is false once the leaf is
// exhausted.  Lengths under 128 — one-byte varints, which is every field of
// the fixed-width tables and nearly every field elsewhere — are decoded
// inline: this is the inner loop of every point lookup and every image load.
func (w *leafWalker) next() (e leafEntry, ok bool, err error) {
	if w.left == 0 {
		return leafEntry{}, false, nil
	}
	data, keyOff := w.data, w.off+1
	if keyOff <= len(data) && data[keyOff-1] < 0x80 {
		valOff := keyOff + int(data[keyOff-1]) + 1
		if valOff <= len(data) && data[valOff-1] < 0x80 {
			if valEnd := valOff + int(data[valOff-1]); valEnd <= len(data) {
				w.off = valEnd
				w.left--
				return leafEntry{uint32(keyOff), uint32(valOff - 1), uint32(valOff), uint32(valEnd)}, true, nil
			}
		}
	}
	return w.nextGeneral()
}

// nextGeneral is next for entries the inline path declines: multi-byte
// length prefixes, and everything malformed.
func (w *leafWalker) nextGeneral() (e leafEntry, ok bool, err error) {
	keyOff, keyEnd, err := w.lenPrefixed(w.off)
	if err != nil {
		return leafEntry{}, false, err
	}
	valOff, valEnd, err := w.lenPrefixed(keyEnd)
	if err != nil {
		return leafEntry{}, false, err
	}
	w.off = valEnd
	w.left--
	return leafEntry{uint32(keyOff), uint32(keyEnd), uint32(valOff), uint32(valEnd)}, true, nil
}

// lenPrefixed decodes the length prefix at off and returns the byte range of
// the field it announces, checked against the page.
func (w *leafWalker) lenPrefixed(off int) (start, end int, err error) {
	n, sz, err := codec.Uvarint(w.data[off:])
	if err != nil {
		return 0, 0, fmt.Errorf("btree: page %d: %w", w.id, err)
	}
	start = off + sz
	if n > uint64(len(w.data)-start) {
		return 0, 0, fmt.Errorf("btree: page %d leaf entry overruns page", w.id)
	}
	return start, start + int(n), nil
}

// stride locates the entries of a node whose entries all have the same
// widths: entry i occupies [off+i*width, off+(i+1)*width) of the node's
// bytes, as a one-byte key length prefix, klen key bytes, and then the value
// part at vskip — a leaf's one-byte value length prefix has been stepped over
// by then; an internal node's value part is its 8-byte child pointer.  The
// zero stride (width 0) means the node is not fixed-width.
type stride struct {
	off, n, width, klen, vskip int
}

// fitStride reports the stride of the n entries serialized at data[off:]
// when every one of them has the same one-byte key length prefix and — for
// a leaf — the same one-byte value length prefix as the first.  Prefixes
// under 0x80 are complete varints, so such a node is exactly what the walker
// would decode, entry for entry.  One pass over the prefix bytes decides it;
// the count is bounded by division so that a hostile n cannot overflow the
// end offset.  ok is false for anything else, including an empty node.
func fitStride(data []byte, off int, n uint64, leaf bool) (s stride, ok bool) {
	if n == 0 || off >= len(data) || data[off] >= 0x80 {
		return stride{}, false
	}
	k := int(data[off])
	s = stride{off: off, klen: k, vskip: 1 + k, width: 1 + k + 8}
	var vlen byte
	if leaf {
		if off+1+k >= len(data) || data[off+1+k] >= 0x80 {
			return stride{}, false
		}
		vlen = data[off+1+k]
		s.vskip, s.width = 2+k, 2+k+int(vlen)
	}
	if n > uint64((len(data)-off)/s.width) {
		return stride{}, false
	}
	s.n = int(n)
	for o, end := off, s.end(); o < end; o += s.width {
		if int(data[o]) != k || leaf && data[o+1+k] != vlen {
			return stride{}, false
		}
	}
	return s, true
}

// end is the offset just past the last entry.
func (s stride) end() int { return s.off + s.n*s.width }

func (s stride) key(data []byte, i int) []byte {
	o := s.off + i*s.width + 1
	return data[o : o+s.klen]
}

// val is entry i's value (a leaf) or child pointer (an internal node).
func (s stride) val(data []byte, i int) []byte {
	o := s.off + i*s.width
	return data[o+s.vskip : o+s.width]
}

// search returns the index of the first entry whose key is >= key.  When
// the node's keys and key are 8 bytes wide — every key of the fixed-width
// tables — they are compared as big-endian integers, which is bytewise
// order, by interpolation (search64); any other node is bisected.
func (s stride) search(data, key []byte) int {
	if s.klen == 8 && len(key) == 8 {
		return s.search64(data, binary.BigEndian.Uint64(key))
	}
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(s.key(data, mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// child returns the index of the child of a fixed-width internal node that
// key routes to.  Separator i bounds child i+1 from below, and an equal key
// routes right.
func (s stride) child(data, key []byte) int {
	i := s.search(data, key)
	if i < s.n && bytes.Equal(s.key(data, i), key) {
		i++
	}
	return i
}

// childID returns the page of a fixed-width internal node's child i: child
// i+1's pointer is the value part of entry i, and child 0's sits just before
// entry 0.
func (s stride) childID(data []byte, i int) pagefile.PageID {
	return pagefile.PageID(binary.LittleEndian.Uint64(data[s.off+i*s.width-8:]))
}

// search64 is search for 8-byte keys, with q the query key as an integer.
// Dense keys — the Score table's document IDs, and the separators above
// them — are near-uniform between a node's first and last key, so the slot
// interpolated from those two (Van Sandt, Chronis & Patel, SIGMOD 2019;
// Graefe, "Modern B-Tree Techniques" §4) is at or next to the answer, and a
// gallop from it followed by a bisection of the bracket it finds gives the
// answer in O(1) probes there and O(log n) in the worst case.  The guess is
// (q-first)·(n-1)/(last-first) in 128-bit arithmetic, so no key can
// overflow it; it is clamped into the node, so unsorted (hostile) keys cost
// time, never an out-of-range read.  The stride's fields are copied into
// locals once, so the loop reads entry keys straight from the node bytes
// without going back to the stride.
func (s stride) search64(data []byte, q uint64) int {
	n, keys, w := s.n, data[s.off+1:], s.width
	first := binary.BigEndian.Uint64(keys)
	if q <= first {
		return 0
	}
	last := binary.BigEndian.Uint64(keys[(n-1)*w:])
	if q > last {
		return n
	}
	// first < q <= last, so n >= 2 and q-first <= last-first: the product's
	// high word is below the divisor, as Div64 requires.
	hi64, lo64 := bits.Mul64(q-first, uint64(n-1))
	g, _ := bits.Div64(hi64, lo64, last-first)
	guess := min(int(g), n-1)
	lo, hi := 0, n
	if binary.BigEndian.Uint64(keys[guess*w:]) < q {
		lo = guess + 1
		for step := 1; ; step <<= 1 {
			probe := guess + step
			if probe >= n {
				break
			}
			if binary.BigEndian.Uint64(keys[probe*w:]) >= q {
				hi = probe
				break
			}
			lo = probe + 1
		}
	} else {
		hi = guess
		for step := 1; ; step <<= 1 {
			probe := guess - step
			if probe < 0 {
				break
			}
			if binary.BigEndian.Uint64(keys[probe*w:]) < q {
				lo = probe + 1
				break
			}
			hi = probe
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if binary.BigEndian.Uint64(keys[mid*w:]) < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafImage is a reader-owned copy of one leaf: the serialized bytes up to
// the end of the last entry, located either by the leaf's stride — when it
// is fixed-width, which needs no table at all — or by an entry-offset table
// built in one walker pass.  Nothing in it aliases the buffer pool, so it
// stays valid after the page's pin is released and whatever the writer does
// next; both buffers are reused from load to load, so a reader that keeps
// its image allocates nothing in steady state.
type leafImage struct {
	data  []byte
	fixed stride // width 0: the walker's table locates the entries
	ents  []leafEntry
}

// A leaf's layout note (buffer.Frame.Layout) records what walkLeaf and
// fitStride decided about the frame's current bytes: noteWalked for a leaf
// that is not fixed-width, or the fixed-width stride itself — its offset,
// key and value widths and entry count, tagged noteFixed — which is all a
// later reader needs to locate the entries without reading a prefix byte.
// A frame drops its note when its bytes change, so a note never outlives
// the bytes that proved it.
const (
	noteWalked uint64 = 1
	noteFixed  uint64 = 2
)

// leafNote packs a leaf's stride: the offset is at most 11 (a type byte and
// a varint count), both widths are under 0x80, and the count is bounded by
// the page size.
func leafNote(s stride) uint64 {
	return noteFixed | uint64(s.off)<<8 | uint64(s.klen)<<16 | uint64(s.width-s.vskip)<<24 | uint64(s.n)<<32
}

// noteStride unpacks leafNote.
func noteStride(v uint64) stride {
	klen, vlen := int(v>>16&0xFF), int(v>>24&0xFF)
	return stride{off: int(v >> 8 & 0xFF), n: int(v >> 32), klen: klen, vskip: 2 + klen, width: 2 + klen + vlen}
}

// leafLayout is walkLeaf and fitStride for the leaf a pinned frame holds,
// through the frame's layout note: a leaf a reader has already proved
// fixed-width returns its noted stride without a look at its bytes, and a
// leaf seen for the first time since its bytes changed leaves its verdict
// for the next reader.  When the leaf is not fixed-width, w is positioned
// at its first entry.
func leafLayout(fr *buffer.Frame) (s stride, fixed bool, w leafWalker, err error) {
	note := fr.Layout()
	if note&noteFixed != 0 {
		return noteStride(note), true, w, nil
	}
	data := fr.Data()
	if w, err = walkLeaf(fr.ID(), data); err != nil {
		return s, false, w, err
	}
	if note == 0 {
		if s, fixed = fitStride(data, w.off, uint64(w.left), true); fixed {
			fr.SetLayout(leafNote(s))
			return s, true, w, nil
		}
		fr.SetLayout(noteWalked)
	}
	return s, false, w, nil
}

// load replaces the image with the leaf a pinned frame holds, located
// through the frame's layout note (leafLayout): by its stride when it is
// fixed-width, else through the walker's table.  On error the image is left
// empty.
func (m *leafImage) load(fr *buffer.Frame) error {
	m.reset()
	s, fixed, w, err := leafLayout(fr)
	switch {
	case err != nil:
		return err
	case fixed:
		m.fixed = s
		m.data = append(m.data, fr.Data()[:s.end()]...)
		return nil
	}
	return m.walk(w, fr.Data())
}

// reset empties the image, keeping its buffers.
func (m *leafImage) reset() { m.data, m.ents, m.fixed = m.data[:0], m.ents[:0], stride{} }

// walk fills the image from the walker: the path for leaves that are not
// fixed-width, and the reference the stride path is tested against.
func (m *leafImage) walk(w leafWalker, page []byte) error {
	for {
		e, ok, err := w.next()
		if err != nil {
			m.ents = m.ents[:0]
			return err
		}
		if !ok {
			break
		}
		m.ents = append(m.ents, e)
	}
	m.data = append(m.data, page[:w.off]...)
	return nil
}

func (m *leafImage) len() int {
	if m.fixed.width > 0 {
		return m.fixed.n
	}
	return len(m.ents)
}

func (m *leafImage) key(i int) []byte {
	if m.fixed.width > 0 {
		return m.fixed.key(m.data, i)
	}
	e := m.ents[i]
	return m.data[e.keyOff:e.keyEnd]
}

func (m *leafImage) val(i int) []byte {
	if m.fixed.width > 0 {
		return m.fixed.val(m.data, i)
	}
	e := m.ents[i]
	return m.data[e.valOff:e.valEnd]
}

// search returns the index of the first entry whose key is >= key: by the
// stride's search on a fixed-width image, by bisecting the table on a walked
// one.
func (m *leafImage) search(key []byte) int {
	if m.fixed.width > 0 {
		return m.fixed.search(m.data, key)
	}
	lo, hi := 0, len(m.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(m.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
