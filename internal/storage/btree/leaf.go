package btree

import (
	"bytes"
	"fmt"

	"svrdb/internal/codec"
	"svrdb/internal/storage/pagefile"
)

// This file holds the read path's view of a leaf: the one walker that steps
// through a serialized leaf in place, and the reader-owned leaf image that
// Probe and the range scans binary-search.  Point lookups (pageLeafFindValue),
// the patch paths (patchRun) and the image all decode entries through the
// walker, so the leaf layout is interpreted — and bounds-checked — in one
// place; parseNode remains for the write path, which needs a mutable node.

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
	off := 1 + sz + 16 // skip the next and prev pointers
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

// leafImage is a reader-owned copy of one leaf: the serialized bytes up to
// the end of the last entry plus an entry-offset table built in one walker
// pass.  Nothing in it aliases the buffer pool, so it stays valid after the
// page's pin is released and whatever the writer does next; both buffers
// are reused from load to load, so a reader that keeps its image allocates
// nothing in steady state.
type leafImage struct {
	data []byte
	ents []leafEntry
}

// load replaces the image with the leaf serialized in page.  On error the
// image is left empty.
func (m *leafImage) load(id pagefile.PageID, page []byte) error {
	m.data, m.ents = m.data[:0], m.ents[:0]
	w, err := walkLeaf(id, page)
	if err != nil {
		return err
	}
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

func (m *leafImage) len() int { return len(m.ents) }

func (m *leafImage) key(i int) []byte {
	e := m.ents[i]
	return m.data[e.keyOff:e.keyEnd]
}

func (m *leafImage) val(i int) []byte {
	e := m.ents[i]
	return m.data[e.valOff:e.valEnd]
}

// search returns the index of the first entry whose key is >= key.
func (m *leafImage) search(key []byte) int {
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
