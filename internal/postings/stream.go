package postings

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"svrdb/internal/codec"
)

// This file provides streaming decoders over io.Reader for every long-list
// layout.  The long lists are stored as blobs and read one page at a time
// (§5.2); these decoders pull bytes lazily through a block buffer so that an
// early-terminating query only faults in the pages of the list prefix it
// actually consumed, which is exactly the effect the Chunk and
// Score-Threshold methods rely on for their query-time advantage.
//
// Every long list is a posting-block blob (block.go); the four stream types
// differ only in which layouts they accept and which seek they offer.  The
// decode logic lives in blockList, which decodes a whole block of postings
// per call directly out of the buffered page bytes.

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

// openBlockList reads the blob header from r and returns the decoder, after
// checking that the blob is of one of the layouts the caller decodes.  An
// empty reader is an empty list.
func openBlockList(r io.Reader, dir []float64, what string, layouts ...byte) (*blockList, error) {
	d, err := newBlockList(newBlockReader(r), dir)
	if err != nil {
		return nil, fmt.Errorf("postings: stream %s list header: %w", what, err)
	}
	if d.layout == 0 {
		return d, nil
	}
	for _, l := range layouts {
		if d.layout == l {
			return d, nil
		}
	}
	return nil, fmt.Errorf("postings: stream %s list: %w: unexpected block layout %d", what, codec.ErrCorrupt, d.layout)
}

// --- streaming ID list ---------------------------------------------------------

// StreamIDList decodes a BlockIDListBuilder blob lazily from r.
type StreamIDList struct{ list *blockList }

// NewStreamIDList reads the header and returns a lazy iterator.  An empty
// reader yields an empty list.
func NewStreamIDList(r io.Reader) (*StreamIDList, error) {
	d, err := openBlockList(r, nil, "id", layoutID)
	if err != nil {
		return nil, err
	}
	return &StreamIDList{list: d}, nil
}

// Len reports the total number of postings in the list.
func (s *StreamIDList) Len() int { return s.list.count }

// SeekDoc positions the iterator so the next entry returned is the first
// with Doc >= doc, skipping whole posting blocks — without decoding them
// or faulting in their pages — via the per-block skip headers.
func (s *StreamIDList) SeekDoc(doc DocID) error { return s.list.seekDoc(doc) }

// NextBatch implements BatchIterator.
func (s *StreamIDList) NextBatch(out []Entry) (int, error) { return s.list.NextBatch(out) }

// --- streaming score list ------------------------------------------------------

// StreamScoreList decodes a BlockScoreListBuilder blob lazily from r.
type StreamScoreList struct{ list *blockList }

// NewStreamScoreList reads the header and returns a lazy iterator.  It is
// NewStreamScoreListDir without a score directory: blobs that encode ranks
// require the directory the encoder used.
func NewStreamScoreList(r io.Reader) (*StreamScoreList, error) {
	return NewStreamScoreListDir(r, nil)
}

// NewStreamScoreListDir reads the header and returns a lazy iterator that
// resolves score ranks through dir (see BuildScoreDir); dir must be the
// directory the list was encoded with.
func NewStreamScoreListDir(r io.Reader, dir []float64) (*StreamScoreList, error) {
	d, err := openBlockList(r, dir, "score", layoutScore)
	if err != nil {
		return nil, err
	}
	return &StreamScoreList{list: d}, nil
}

// Len reports the total number of postings.
func (s *StreamScoreList) Len() int { return s.list.count }

// SeekScoreLE positions the iterator so the next entry returned is the
// first with score <= s (the layout sorts descending by score), skipping
// whole posting blocks via the skip headers.
func (s *StreamScoreList) SeekScoreLE(score float64) error { return s.list.seekScoreLE(score) }

// NextBatch implements BatchIterator.
func (s *StreamScoreList) NextBatch(out []Entry) (int, error) { return s.list.NextBatch(out) }

// --- streaming chunked list ----------------------------------------------------

// StreamChunkedList decodes a BlockChunkedListBuilder blob, with or without
// term weights, lazily from r.
type StreamChunkedList struct{ list *blockList }

// NewStreamChunkedList reads the header and returns a lazy iterator.
func NewStreamChunkedList(r io.Reader) (*StreamChunkedList, error) {
	d, err := openBlockList(r, nil, "chunked", layoutChunk, layoutChunkTerm)
	if err != nil {
		return nil, err
	}
	return &StreamChunkedList{list: d}, nil
}

// Len reports the total number of postings; NumChunks the number of chunks.
func (s *StreamChunkedList) Len() int       { return s.list.count }
func (s *StreamChunkedList) NumChunks() int { return s.list.chunks }

// SeekChunkLE positions the iterator so the next entry returned is the
// first with CID <= cid (the layout sorts descending by chunk), skipping
// whole posting blocks via the skip headers.
func (s *StreamChunkedList) SeekChunkLE(cid int32) error { return s.list.seekChunkLE(cid) }

// NextBatch implements BatchIterator.
func (s *StreamChunkedList) NextBatch(out []Entry) (int, error) { return s.list.NextBatch(out) }

// --- streaming ID+term list ----------------------------------------------------

// StreamIDTermList decodes a BlockIDTermListBuilder blob lazily from r.
type StreamIDTermList struct{ list *blockList }

// NewStreamIDTermList reads the header and returns a lazy iterator.
func NewStreamIDTermList(r io.Reader) (*StreamIDTermList, error) {
	d, err := openBlockList(r, nil, "id+term", layoutIDTerm)
	if err != nil {
		return nil, err
	}
	return &StreamIDTermList{list: d}, nil
}

// Len reports the total number of postings.
func (s *StreamIDTermList) Len() int { return s.list.count }

// SeekDoc positions the iterator so the next entry returned is the first
// with Doc >= doc, skipping whole posting blocks via the skip headers.
func (s *StreamIDTermList) SeekDoc(doc DocID) error { return s.list.seekDoc(doc) }

// NextBatch implements BatchIterator.
func (s *StreamIDTermList) NextBatch(out []Entry) (int, error) { return s.list.NextBatch(out) }
