package postings

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"svrdb/internal/codec"
)

// This file provides streaming decoders over io.Reader for every long-list
// layout.  The long lists are stored as blobs and read one page at a time
// (§5.2); these decoders pull bytes lazily through a block buffer so that an
// early-terminating query only faults in the pages of the list prefix it
// actually consumed, which is exactly the effect the Chunk and
// Score-Threshold methods rely on for their query-time advantage.
//
// Every long list is a posting-block blob (block.go), opened by Open; the
// layouts differ only in their block bodies and in which of them can seek.
// The decode logic lives in blockList, which decodes a whole block of
// postings per call directly out of the buffered page bytes.

// streamBlockSize is the block buffer size; one on-disk page.
const streamBlockSize = 4096

// errTruncated reports a blob that ends inside a value its framing promised.
var errTruncated = fmt.Errorf("%w: posting list truncated", codec.ErrCorrupt)

// blockReader buffers reads from r and decodes scalars directly from the
// buffered bytes, refilling (and compacting the unconsumed tail) only when a
// scalar could straddle the buffer boundary.
type blockReader struct {
	r     io.Reader
	sized sizedReader // r, when it knows how many bytes it has left
	buf   []byte
	pos   int
	lim   int
	eof   bool
}

// sizedReader is the optional protocol of a source that knows its length;
// blob readers implement it.
type sizedReader interface{ Remaining() uint64 }

func newBlockReader(r io.Reader) *blockReader {
	size := streamBlockSize
	// When the source knows how many bytes remain, size the buffer to the
	// list: a tiny list gets a tiny buffer instead of a page-sized one,
	// which matters because short queries over short lists pay the buffer
	// set-up per term per query.
	sized, _ := r.(sizedReader)
	if sized != nil {
		if rem := sized.Remaining(); rem < uint64(size) {
			size = int(rem)
			if size < 16 {
				size = 16
			}
		}
	}
	return &blockReader{r: r, sized: sized, buf: make([]byte, size)}
}

// fill compacts the unconsumed tail to the front of the buffer and reads
// until the buffer is full or the source is exhausted.
func (b *blockReader) fill() error {
	copy(b.buf, b.buf[b.pos:b.lim])
	b.lim -= b.pos
	b.pos = 0
	for b.lim < len(b.buf) && !b.eof {
		n, err := b.r.Read(b.buf[b.lim:])
		b.lim += n
		if err == io.EOF {
			b.eof = true
			break
		}
		if err != nil {
			return err
		}
		if n == 0 {
			b.eof = true
			break
		}
	}
	return nil
}

// ensure makes at least n bytes available when the stream has them; after a
// call, avail() < n implies the source is exhausted.
func (b *blockReader) ensure(n int) error {
	if b.lim-b.pos >= n || b.eof {
		return nil
	}
	return b.fill()
}

func (b *blockReader) avail() int { return b.lim - b.pos }

// remaining reports how many unconsumed bytes the stream holds, when the
// source knows.
func (b *blockReader) remaining() (uint64, bool) {
	if b.sized == nil {
		return 0, false
	}
	return uint64(b.avail()) + b.sized.Remaining(), true
}

func (b *blockReader) uvarint() (uint64, error) {
	if err := b.ensure(binary.MaxVarintLen64); err != nil {
		return 0, err
	}
	v, n := binary.Uvarint(b.buf[b.pos:b.lim])
	if n == 0 {
		return 0, errTruncated
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: uvarint overflow", codec.ErrCorrupt)
	}
	b.pos += n
	return v, nil
}

func (b *blockReader) float64() (float64, error) {
	if err := b.ensure(8); err != nil {
		return 0, err
	}
	if b.avail() < 8 {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b.buf[b.pos:]))
	b.pos += 8
	return v, nil
}

func (b *blockReader) byte() (byte, error) {
	if err := b.ensure(1); err != nil {
		return 0, err
	}
	if b.avail() < 1 {
		return 0, errTruncated
	}
	c := b.buf[b.pos]
	b.pos++
	return c, nil
}

// peek returns the next byte without consuming it; io.EOF when the source
// is exhausted.
func (b *blockReader) peek() (byte, error) {
	if err := b.ensure(1); err != nil {
		return 0, err
	}
	if b.avail() < 1 {
		return 0, io.EOF
	}
	return b.buf[b.pos], nil
}

// view consumes the next n bytes and returns them as a contiguous slice of
// the buffer, valid until the next fill.  n must not exceed the buffer
// size; posting blocks are built small enough that a whole block body
// always fits (see blockCap).
func (b *blockReader) view(n int) ([]byte, error) {
	if n > len(b.buf) {
		return nil, fmt.Errorf("%w: block body of %d bytes exceeds %d-byte buffer", codec.ErrCorrupt, n, len(b.buf))
	}
	if err := b.ensure(n); err != nil {
		return nil, err
	}
	if b.avail() < n {
		return nil, errTruncated
	}
	p := b.buf[b.pos : b.pos+n]
	b.pos += n
	return p, nil
}

// byteSkipper is the optional fast-skip protocol of the underlying reader;
// blob readers implement it by advancing their offset without faulting in
// the skipped pages.
type byteSkipper interface{ Skip(n uint64) error }

// skip consumes n bytes.  Bytes beyond the buffered tail are skipped on
// the underlying reader without being read when it supports that, which is
// what lets a seek jump posting blocks without touching their pages.
func (b *blockReader) skip(n int) error {
	if a := b.avail(); a >= n {
		b.pos += n
		return nil
	}
	n -= b.avail()
	b.pos = b.lim
	if !b.eof {
		if sk, ok := b.r.(byteSkipper); ok {
			return sk.Skip(uint64(n))
		}
	}
	for n > 0 {
		if err := b.fill(); err != nil {
			return err
		}
		if b.avail() == 0 {
			return errTruncated
		}
		t := b.avail()
		if t > n {
			t = n
		}
		b.pos += t
		n -= t
	}
	return nil
}

// Open reads the blob header from r and returns the list's decoder, after
// checking that the blob is of one of layouts: a blob of another layout is
// refused with codec.ErrCorrupt.  dir is the score directory a LayoutScore
// list was written with (see BuildScoreDir); the other layouts ignore it.
// An empty reader is an empty list.  An ID-layout list also has SeekDoc,
// which a conjunctive Merge leapfrogs with; the other layouts' skip headers
// carry no document range to seek by.
func Open(r io.Reader, dir []float64, layouts ...Layout) (BatchIterator, error) {
	d, err := newBlockList(newBlockReader(r), dir)
	if err != nil {
		return nil, fmt.Errorf("postings: open list header: %w", err)
	}
	switch {
	case d.layout == 0:
		return d, nil
	case !slices.Contains(layouts, d.layout):
		return nil, fmt.Errorf("postings: open list: %w: unexpected block layout %d", codec.ErrCorrupt, d.layout)
	case d.layout == LayoutID || d.layout == LayoutIDTerm:
		return idList{d}, nil
	}
	return d, nil
}

// NewStreamChunkedList opens a list of either chunk layout: Open for
// LayoutChunk and LayoutChunkTerm, kept for benchmark/trace.go.
func NewStreamChunkedList(r io.Reader) (BatchIterator, error) {
	return Open(r, nil, LayoutChunk, LayoutChunkTerm)
}
