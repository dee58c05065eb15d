package postings

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"svrdb/internal/codec"
)

// Posting blocks.
//
// Every long-list layout is encoded as fixed-capacity blocks of up to
// blockCap postings.  A blob is
//
//	magic byte 0x00
//	version<<4 | layout byte
//	uvarint posting count
//	[uvarint chunk count]            (chunk layouts only)
//	super-block*
//
// Blocks are framed at two levels.  Each super-block groups up to superFan
// blocks and is
//
//	uvarint n                        (postings in this super-block)
//	key summary                      (first key, last key — layout specific)
//	uvarint byteLen
//	block*                           (byteLen bytes)
//
// and each block inside it is
//
//	uvarint n                        (postings in this block, 1..blockCap)
//	key summary                      (same form as the super-block's)
//	uvarint bodyLen
//	body                             (bodyLen bytes, self-contained)
//
// The (first key, last key, byte length) triple is the skip header, and it
// reads identically at both levels.  A seek walks headers and skips any
// frame whose key range cannot contain the target without decoding it.
// The two levels exist because of the page economics: a compressed block
// is far smaller than a disk page, so skipping single blocks saves decode
// work but still touches every page, while a skipped super-block spans
// many pages that are never faulted in (the blob reader advances by
// offset).  Bodies restart from absolute values, so a block decodes
// without any state from its predecessors.
//
// The stream constructors refuse a blob that does not start with the magic
// byte, carries another version, or is of a layout they do not decode.
//
// Per-layout bodies:
//
//	ID        width byte w, then (gap-1) per posting bitpacked at w bits
//	IDTerm    ID body, then a term-weight section
//	Score     per posting: uvarint rank tag, uvarint doc.  Tag 0 is
//	          followed by a raw float64 score; tag c>0 encodes rank c-1
//	          into the score directory (absolute at block start and after
//	          a raw score, otherwise a delta from the previous rank).
//	Chunk     segments of equal-cid runs: cid (absolute for the first
//	          segment, then a positive descending delta), uvarint segN,
//	          uvarint first doc, width byte, bitpacked (gap-1)
//	ChunkTerm Chunk body, then a term-weight section for all n postings
//
// The term-weight section is a mode byte d: 0 is followed by n raw
// float32 weights; 1..maxWeightDict is a dictionary of d distinct float32
// values followed by n indices bitpacked at bits.Len(d-1) bits.  Term
// weights are normalized term frequencies, so a block rarely sees more
// than a handful of distinct values.
//
// The Score layout's rank codec needs a score directory: the sorted
// descending distinct document scores of the build (BuildScoreDir).  It
// turns 8-byte float scores into ~1-byte varint rank deltas while
// round-tripping values exactly; scores missing from the directory fall
// back to raw float64s.

const (
	// blockMagic is the first byte of every posting-block blob.
	blockMagic = 0x00
	// blockVersion is the posting-block format version, stored in the high
	// nibble of the second byte.
	blockVersion = 1
	// blockCap is the maximum number of postings per block.  128 postings
	// keep the worst-case block body (~2.7 KB) under the 4 KB stream
	// buffer, so a body is always contiguous in the buffered page bytes.
	blockCap = 128
	// maxWeightDict is the largest per-block term-weight dictionary; blocks
	// with more distinct weights store them raw.
	maxWeightDict = 16
	// superFan is the number of blocks per super-block.  256 blocks of
	// dense postings compress to tens of kilobytes — several pages — so a
	// skipped super-block is a real page-I/O saving, not just a decode
	// saving.
	superFan = 256
)

// Layout tags, stored in the low nibble of the second byte.
const (
	layoutID byte = 1 + iota
	layoutIDTerm
	layoutScore
	layoutChunk
	layoutChunkTerm
)

// BuildScoreDir returns the sorted-descending distinct values of scores:
// the per-build score directory the compressed score layout encodes ranks
// into.  Both the encoder and the decoder must use the same directory.
func BuildScoreDir(scores []float64) []float64 {
	if len(scores) == 0 {
		return nil
	}
	dir := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(dir)))
	out := dir[:1]
	for _, s := range dir[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// dirRank finds the exact rank of s in the descending directory.
func dirRank(dir []float64, s float64) (int, bool) {
	i := sort.Search(len(dir), func(i int) bool { return dir[i] <= s })
	if i < len(dir) && dir[i] == s {
		return i, true
	}
	return 0, false
}

// --- bitpacking ----------------------------------------------------------------

// appendPacked appends vals bitpacked LSB-first at w bits each.  Values
// must fit in w bits.  w == 0 appends nothing (all values are zero).
func appendPacked(dst []byte, vals []uint64, w int) []byte {
	if w == 0 {
		return dst
	}
	var acc uint64
	nb := 0
	var b8 [8]byte
	for _, v := range vals {
		acc |= v << uint(nb)
		if nb+w >= 64 {
			binary.LittleEndian.PutUint64(b8[:], acc)
			dst = append(dst, b8[:]...)
			spill := 64 - nb
			acc = 0
			if spill < w {
				acc = v >> uint(spill)
			}
			nb = nb + w - 64
		} else {
			nb += w
		}
	}
	if nb > 0 {
		binary.LittleEndian.PutUint64(b8[:], acc)
		dst = append(dst, b8[:(nb+7)/8]...)
	}
	return dst
}

// getBits extracts the w-bit value at bit offset bitOff from the LSB-first
// packed bytes in src.  All bits of the value must lie within src.
func getBits(src []byte, bitOff, w uint) uint64 {
	if w == 0 {
		return 0
	}
	byteOff := int(bitOff >> 3)
	shift := bitOff & 7
	var word uint64
	if byteOff+8 <= len(src) {
		word = binary.LittleEndian.Uint64(src[byteOff:])
	} else {
		for i := len(src) - 1; i >= byteOff; i-- {
			word = word<<8 | uint64(src[i])
		}
	}
	v := word >> shift
	if shift != 0 && byteOff+8 < len(src) {
		v |= uint64(src[byteOff+8]) << (64 - shift)
	}
	if w < 64 {
		v &= (1 << w) - 1
	}
	return v
}

// --- term-weight section --------------------------------------------------------

// appendWeights appends the term-weight section for ws (len >= 1).
func appendWeights(dst []byte, ws []float32) []byte {
	var dict [maxWeightDict]uint32
	var idx [blockCap]uint64
	d := 0
outer:
	for i, w := range ws {
		b := math.Float32bits(w)
		for j := 0; j < d; j++ {
			if dict[j] == b {
				idx[i] = uint64(j)
				continue outer
			}
		}
		if d == maxWeightDict {
			d = -1
			break
		}
		dict[d] = b
		idx[i] = uint64(d)
		d++
	}
	if d < 0 {
		dst = append(dst, 0)
		for _, w := range ws {
			dst = codec.PutFloat32(dst, w)
		}
		return dst
	}
	dst = append(dst, byte(d))
	for j := 0; j < d; j++ {
		dst = codec.PutUint32(dst, dict[j])
	}
	return appendPacked(dst, idx[:len(ws)], bits.Len(uint(d-1)))
}

// decodeWeights fills out[i].TermScore from the term-weight section at
// body[off:], returning the offset past the section.
func decodeWeights(body []byte, off int, out []Entry) (int, error) {
	n := len(out)
	if off >= len(body) {
		return 0, fmt.Errorf("%w: missing term-weight section", codec.ErrCorrupt)
	}
	mode := int(body[off])
	off++
	if mode == 0 {
		if off+4*n > len(body) {
			return 0, fmt.Errorf("%w: raw term weights truncated", codec.ErrCorrupt)
		}
		for i := 0; i < n; i++ {
			out[i].TermScore = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
			off += 4
		}
		return off, nil
	}
	if mode > maxWeightDict {
		return 0, fmt.Errorf("%w: term-weight dictionary of %d", codec.ErrCorrupt, mode)
	}
	if off+4*mode > len(body) {
		return 0, fmt.Errorf("%w: term-weight dictionary truncated", codec.ErrCorrupt)
	}
	var dict [maxWeightDict]float32
	for j := 0; j < mode; j++ {
		dict[j] = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	w := bits.Len(uint(mode - 1))
	plen := (n*w + 7) / 8
	if off+plen > len(body) {
		return 0, fmt.Errorf("%w: term-weight indices truncated", codec.ErrCorrupt)
	}
	src := body[off : off+plen]
	bitOff := uint(0)
	for i := 0; i < n; i++ {
		k := getBits(src, bitOff, uint(w))
		bitOff += uint(w)
		if int(k) >= mode {
			return 0, fmt.Errorf("%w: term-weight index %d of %d", codec.ErrCorrupt, k, mode)
		}
		out[i].TermScore = dict[k]
	}
	return off + plen, nil
}

// --- compressed builders --------------------------------------------------------

// blockIDCore is the shared encoder for the ID and ID+term layouts.
type blockIDCore struct {
	withTerm bool
	out      []byte // finished super-blocks
	sup      []byte // blocks of the open super-block
	scratch  []byte
	docs     [blockCap]DocID
	ws       [blockCap]float32
	n        int
	count    int
	last     DocID

	supN      int
	supBlocks int
	supFirst  DocID
	supLast   DocID
}

func (c *blockIDCore) add(doc DocID, w float32) error {
	if doc < 0 {
		return fmt.Errorf("postings: negative doc ID %d", doc)
	}
	if c.count > 0 && doc <= c.last {
		return fmt.Errorf("%w: doc %d after %d", ErrOrder, doc, c.last)
	}
	c.docs[c.n] = doc
	c.ws[c.n] = w
	c.n++
	c.last = doc
	c.count++
	if c.n == blockCap {
		c.flush()
	}
	return nil
}

func (c *blockIDCore) flush() {
	if c.n == 0 {
		return
	}
	n := c.n
	if c.supBlocks == 0 {
		c.supFirst = c.docs[0]
	}
	c.supLast = c.docs[n-1]
	c.sup = codec.PutUvarint(c.sup, uint64(n))
	c.sup = codec.PutUvarint(c.sup, uint64(c.docs[0]))
	c.sup = codec.PutUvarint(c.sup, uint64(c.docs[n-1]-c.docs[0]))
	body := appendDocGaps(c.scratch[:0], c.docs[:n])
	if c.withTerm {
		body = appendWeights(body, c.ws[:n])
	}
	c.sup = codec.PutUvarint(c.sup, uint64(len(body)))
	c.sup = append(c.sup, body...)
	c.scratch = body[:0]
	c.supN += n
	c.supBlocks++
	c.n = 0
	if c.supBlocks == superFan {
		c.flushSuper()
	}
}

func (c *blockIDCore) flushSuper() {
	if c.supBlocks == 0 {
		return
	}
	c.out = codec.PutUvarint(c.out, uint64(c.supN))
	c.out = codec.PutUvarint(c.out, uint64(c.supFirst))
	c.out = codec.PutUvarint(c.out, uint64(c.supLast-c.supFirst))
	c.out = codec.PutUvarint(c.out, uint64(len(c.sup)))
	c.out = append(c.out, c.sup...)
	c.sup = c.sup[:0]
	c.supN, c.supBlocks = 0, 0
}

func (c *blockIDCore) bytes(layout byte) []byte {
	c.flush()
	c.flushSuper()
	out := []byte{blockMagic, blockVersion<<4 | layout}
	out = codec.PutUvarint(out, uint64(c.count))
	return append(out, c.out...)
}

// appendDocGaps appends the width byte and bitpacked (gap-1) run for the
// ascending docs (the first doc is carried by the enclosing header).
func appendDocGaps(body []byte, docs []DocID) []byte {
	n := len(docs)
	w := 0
	var gaps [blockCap]uint64
	for i := 1; i < n; i++ {
		g := uint64(docs[i]-docs[i-1]) - 1
		gaps[i-1] = g
		if l := bits.Len64(g); l > w {
			w = l
		}
	}
	body = append(body, byte(w))
	return appendPacked(body, gaps[:n-1], w)
}

// BlockIDListBuilder is the compressed encoder for the ID layout.
type BlockIDListBuilder struct{ c blockIDCore }

// NewBlockIDListBuilder returns an empty compressed ID-list encoder.
func NewBlockIDListBuilder() *BlockIDListBuilder { return &BlockIDListBuilder{} }

// Add appends a document ID; IDs must be strictly ascending and non-negative.
func (b *BlockIDListBuilder) Add(doc DocID) error { return b.c.add(doc, 0) }

// Len reports the number of postings added.
func (b *BlockIDListBuilder) Len() int { return b.c.count }

// Bytes returns the encoded list.
func (b *BlockIDListBuilder) Bytes() []byte { return b.c.bytes(layoutID) }

// BlockIDTermListBuilder is the compressed encoder for the ID+term layout.
type BlockIDTermListBuilder struct{ c blockIDCore }

// NewBlockIDTermListBuilder returns an empty compressed ID+term encoder.
func NewBlockIDTermListBuilder() *BlockIDTermListBuilder {
	b := &BlockIDTermListBuilder{}
	b.c.withTerm = true
	return b
}

// Add appends a posting; doc IDs must be strictly ascending.
func (b *BlockIDTermListBuilder) Add(doc DocID, termScore float32) error {
	return b.c.add(doc, termScore)
}

// Len reports the number of postings added.
func (b *BlockIDTermListBuilder) Len() int { return b.c.count }

// Bytes returns the encoded list.
func (b *BlockIDTermListBuilder) Bytes() []byte { return b.c.bytes(layoutIDTerm) }

// BlockScoreListBuilder is the compressed encoder for the score layout.
type BlockScoreListBuilder struct {
	dir       []float64
	out       []byte // finished super-blocks
	sup       []byte // blocks of the open super-block
	scratch   []byte
	docs      [blockCap]DocID
	scores    [blockCap]float64
	n         int
	count     int
	lastScore float64
	lastDoc   DocID

	supN      int
	supBlocks int
	supFirst  float64
	supLast   float64
}

// NewBlockScoreListBuilder returns an empty compressed score-list encoder
// writing ranks into dir (may be nil: every score then stores raw).
func NewBlockScoreListBuilder(dir []float64) *BlockScoreListBuilder {
	return &BlockScoreListBuilder{dir: dir}
}

// Add appends a posting; postings must arrive in descending score order.
func (b *BlockScoreListBuilder) Add(doc DocID, score float64) error {
	if doc < 0 {
		return fmt.Errorf("postings: negative doc ID %d", doc)
	}
	if b.count > 0 {
		if score > b.lastScore || (score == b.lastScore && doc <= b.lastDoc) {
			return fmt.Errorf("%w: (doc %d, score %g) after (doc %d, score %g)", ErrOrder, doc, score, b.lastDoc, b.lastScore)
		}
	}
	b.docs[b.n] = doc
	b.scores[b.n] = score
	b.n++
	b.lastScore, b.lastDoc = score, doc
	b.count++
	if b.n == blockCap {
		b.flush()
	}
	return nil
}

func (b *BlockScoreListBuilder) appendScoreKey(dst []byte, s float64) []byte {
	if r, ok := dirRank(b.dir, s); ok {
		return codec.PutUvarint(dst, uint64(r)+1)
	}
	dst = codec.PutUvarint(dst, 0)
	return codec.PutFloat64(dst, s)
}

func (b *BlockScoreListBuilder) flush() {
	if b.n == 0 {
		return
	}
	n := b.n
	if b.supBlocks == 0 {
		b.supFirst = b.scores[0]
	}
	b.supLast = b.scores[n-1]
	b.sup = codec.PutUvarint(b.sup, uint64(n))
	b.sup = b.appendScoreKey(b.sup, b.scores[0])
	b.sup = b.appendScoreKey(b.sup, b.scores[n-1])
	body := b.scratch[:0]
	prevRank := -1
	for i := 0; i < n; i++ {
		if r, ok := dirRank(b.dir, b.scores[i]); ok {
			if prevRank >= 0 {
				body = codec.PutUvarint(body, uint64(r-prevRank)+1)
			} else {
				body = codec.PutUvarint(body, uint64(r)+1)
			}
			prevRank = r
		} else {
			body = codec.PutUvarint(body, 0)
			body = codec.PutFloat64(body, b.scores[i])
			prevRank = -1
		}
		body = codec.PutUvarint(body, uint64(b.docs[i]))
	}
	b.sup = codec.PutUvarint(b.sup, uint64(len(body)))
	b.sup = append(b.sup, body...)
	b.scratch = body[:0]
	b.supN += n
	b.supBlocks++
	b.n = 0
	if b.supBlocks == superFan {
		b.flushSuper()
	}
}

func (b *BlockScoreListBuilder) flushSuper() {
	if b.supBlocks == 0 {
		return
	}
	b.out = codec.PutUvarint(b.out, uint64(b.supN))
	b.out = b.appendScoreKey(b.out, b.supFirst)
	b.out = b.appendScoreKey(b.out, b.supLast)
	b.out = codec.PutUvarint(b.out, uint64(len(b.sup)))
	b.out = append(b.out, b.sup...)
	b.sup = b.sup[:0]
	b.supN, b.supBlocks = 0, 0
}

// Len reports the number of postings added.
func (b *BlockScoreListBuilder) Len() int { return b.count }

// Bytes returns the encoded list.
func (b *BlockScoreListBuilder) Bytes() []byte {
	b.flush()
	b.flushSuper()
	out := []byte{blockMagic, blockVersion<<4 | layoutScore}
	out = codec.PutUvarint(out, uint64(b.count))
	return append(out, b.out...)
}

// BlockChunkedListBuilder is the compressed encoder for the chunked layouts.
type BlockChunkedListBuilder struct {
	withTerm bool
	out      []byte // finished super-blocks
	sup      []byte // blocks of the open super-block
	scratch  []byte
	cids     [blockCap]int32
	docs     [blockCap]DocID
	ws       [blockCap]float32
	n        int
	count    int
	chunks   int
	lastCID  int32
	haveCID  bool

	supN      int
	supBlocks int
	supFirst  int32
	supLast   int32
}

// NewBlockChunkedListBuilder returns an empty compressed chunked-list
// encoder, with or without per-posting term weights.
func NewBlockChunkedListBuilder(withTerm bool) *BlockChunkedListBuilder {
	return &BlockChunkedListBuilder{withTerm: withTerm}
}

// AddChunk appends a chunk with the given ID and postings (ascending doc
// order required; chunk IDs must descend).  Empty chunks are skipped.
func (b *BlockChunkedListBuilder) AddChunk(cid int32, posts []ChunkPosting) error {
	if len(posts) == 0 {
		return nil
	}
	if b.haveCID && cid >= b.lastCID {
		return fmt.Errorf("%w: chunk %d after %d (chunks must descend)", ErrOrder, cid, b.lastCID)
	}
	last := DocID(-1)
	for i, p := range posts {
		if p.Doc < 0 {
			return fmt.Errorf("postings: negative doc ID %d", p.Doc)
		}
		if i > 0 && p.Doc <= last {
			return fmt.Errorf("%w: doc %d after %d within chunk %d", ErrOrder, p.Doc, last, cid)
		}
		b.cids[b.n] = cid
		b.docs[b.n] = p.Doc
		b.ws[b.n] = p.TermScore
		b.n++
		last = p.Doc
		b.count++
		if b.n == blockCap {
			b.flush()
		}
	}
	b.lastCID = cid
	b.haveCID = true
	b.chunks++
	return nil
}

func (b *BlockChunkedListBuilder) flush() {
	if b.n == 0 {
		return
	}
	n := b.n
	if b.supBlocks == 0 {
		b.supFirst = b.cids[0]
	}
	b.supLast = b.cids[n-1]
	b.sup = codec.PutUvarint(b.sup, uint64(n))
	b.sup = codec.PutUvarint(b.sup, uint64(uint32(b.cids[0])))
	b.sup = codec.PutUvarint(b.sup, uint64(int64(b.cids[0])-int64(b.cids[n-1])))
	body := b.scratch[:0]
	first := true
	var prevCID int32
	for i := 0; i < n; {
		j := i + 1
		for j < n && b.cids[j] == b.cids[i] {
			j++
		}
		if first {
			body = codec.PutUvarint(body, uint64(uint32(b.cids[i])))
			first = false
		} else {
			body = codec.PutUvarint(body, uint64(int64(prevCID)-int64(b.cids[i])))
		}
		prevCID = b.cids[i]
		body = codec.PutUvarint(body, uint64(j-i))
		body = codec.PutUvarint(body, uint64(b.docs[i]))
		body = appendDocGaps(body, b.docs[i:j])
		i = j
	}
	if b.withTerm {
		body = appendWeights(body, b.ws[:n])
	}
	b.sup = codec.PutUvarint(b.sup, uint64(len(body)))
	b.sup = append(b.sup, body...)
	b.scratch = body[:0]
	b.supN += n
	b.supBlocks++
	b.n = 0
	if b.supBlocks == superFan {
		b.flushSuper()
	}
}

func (b *BlockChunkedListBuilder) flushSuper() {
	if b.supBlocks == 0 {
		return
	}
	b.out = codec.PutUvarint(b.out, uint64(b.supN))
	b.out = codec.PutUvarint(b.out, uint64(uint32(b.supFirst)))
	b.out = codec.PutUvarint(b.out, uint64(int64(b.supFirst)-int64(b.supLast)))
	b.out = codec.PutUvarint(b.out, uint64(len(b.sup)))
	b.out = append(b.out, b.sup...)
	b.sup = b.sup[:0]
	b.supN, b.supBlocks = 0, 0
}

// Len reports the number of postings added; Chunks the number of chunks.
func (b *BlockChunkedListBuilder) Len() int    { return b.count }
func (b *BlockChunkedListBuilder) Chunks() int { return b.chunks }

// Bytes returns the encoded list.
func (b *BlockChunkedListBuilder) Bytes() []byte {
	b.flush()
	b.flushSuper()
	layout := layoutChunk
	if b.withTerm {
		layout = layoutChunkTerm
	}
	out := []byte{blockMagic, blockVersion<<4 | layout}
	out = codec.PutUvarint(out, uint64(b.count))
	out = codec.PutUvarint(out, uint64(b.chunks))
	return append(out, b.out...)
}

// --- compressed decoder ---------------------------------------------------------

// blockHeader is one decoded skip header.
type blockHeader struct {
	n        int
	bodyLen  int
	firstDoc DocID
	lastDoc  DocID
	firstKey float64
	lastKey  float64
	firstCID int32
	lastCID  int32
}

// blockList decodes a blob of any layout, one whole block at a time into an
// inline scratch array.  The stream wrappers in stream.go delegate to it.
type blockList struct {
	br        *blockReader
	layout    byte
	count     int
	chunks    int
	dir       []float64
	decoded   int
	superLeft int // postings remaining in the open super-block
	pos       int
	entries   []Entry
	arr       [blockCap]Entry
	err       error
}

// newBlockList consumes the blob header from br and returns the decoder.
// An exhausted reader is the empty list (layout 0).
func newBlockList(br *blockReader, dir []float64) (*blockList, error) {
	magic, err := br.peek()
	if err == io.EOF {
		return &blockList{br: br}, nil
	}
	if err != nil {
		return nil, err
	}
	if magic != blockMagic {
		return nil, fmt.Errorf("%w: first byte %#x is not the posting block magic", codec.ErrCorrupt, magic)
	}
	br.pos++ // the magic byte
	vl, err := br.byte()
	if err != nil {
		return nil, err
	}
	if vl>>4 != blockVersion {
		return nil, fmt.Errorf("%w: unknown posting block version %d", codec.ErrCorrupt, vl>>4)
	}
	layout := vl & 0x0f
	if layout < layoutID || layout > layoutChunkTerm {
		return nil, fmt.Errorf("%w: unknown posting block layout %d", codec.ErrCorrupt, layout)
	}
	d := &blockList{br: br, layout: layout, dir: dir}
	cnt, err := br.uvarint()
	if err != nil {
		return nil, fmt.Errorf("posting block count: %w", err)
	}
	if cnt > math.MaxInt {
		return nil, fmt.Errorf("%w: posting count %d", codec.ErrCorrupt, cnt)
	}
	d.count = int(cnt)
	if layout == layoutChunk || layout == layoutChunkTerm {
		ch, err := br.uvarint()
		if err != nil {
			return nil, fmt.Errorf("posting block chunk count: %w", err)
		}
		if ch > cnt {
			return nil, fmt.Errorf("%w: %d chunks for %d postings", codec.ErrCorrupt, ch, cnt)
		}
		d.chunks = int(ch)
	}
	return d, nil
}

func (d *blockList) readScoreKey() (float64, error) {
	c, err := d.br.uvarint()
	if err != nil {
		return 0, err
	}
	if c == 0 {
		return d.br.float64()
	}
	r := int(c - 1)
	if r >= len(d.dir) {
		return 0, fmt.Errorf("%w: score rank %d outside directory of %d", codec.ErrCorrupt, r, len(d.dir))
	}
	return d.dir[r], nil
}

// readHeader decodes one skip header.  The same shape frames both levels:
// max is the posting bound the frame must respect — what remains of the
// list for a super-block, what remains of the super-block (capped at
// blockCap) for a block — and maxBytes the byte bound, which for a block is
// the stream buffer a body must fit.  Blobs carry no checksum, so every
// length is checked before anything is sliced or skipped by it.
func (d *blockList) readHeader(max int, maxBytes uint64) (blockHeader, error) {
	var h blockHeader
	nv, err := d.br.uvarint()
	if err != nil {
		return h, err
	}
	if nv < 1 || nv > uint64(max) {
		return h, fmt.Errorf("%w: frame of %d postings where at most %d fit", codec.ErrCorrupt, nv, max)
	}
	h.n = int(nv)
	switch d.layout {
	case layoutID, layoutIDTerm:
		f, err := d.br.uvarint()
		if err != nil {
			return h, err
		}
		span, err := d.br.uvarint()
		if err != nil {
			return h, err
		}
		h.firstDoc = DocID(f)
		h.lastDoc = DocID(f + span)
	case layoutScore:
		if h.firstKey, err = d.readScoreKey(); err != nil {
			return h, err
		}
		if h.lastKey, err = d.readScoreKey(); err != nil {
			return h, err
		}
	case layoutChunk, layoutChunkTerm:
		f, err := d.br.uvarint()
		if err != nil {
			return h, err
		}
		span, err := d.br.uvarint()
		if err != nil {
			return h, err
		}
		h.firstCID = int32(uint32(f))
		h.lastCID = int32(int64(h.firstCID) - int64(span))
	}
	bl, err := d.br.uvarint()
	if err != nil {
		return h, err
	}
	if rem, known := d.br.remaining(); known && rem < maxBytes {
		maxBytes = rem
	}
	if bl > maxBytes {
		return h, fmt.Errorf("%w: frame of %d bytes where at most %d fit", codec.ErrCorrupt, bl, maxBytes)
	}
	h.bodyLen = int(bl)
	return h, nil
}

// loadBlock decodes the block under h into the scratch array.
func (d *blockList) loadBlock(h blockHeader) error {
	body, err := d.br.view(h.bodyLen)
	if err != nil {
		return err
	}
	// The previous block's last entry, before the scratch array is reused:
	// the list order must hold across the block boundary too.
	havePrev := len(d.entries) > 0
	var prevKey float64
	var prevDoc DocID
	if havePrev {
		last := d.entries[len(d.entries)-1]
		prevKey, prevDoc = last.SortKey, last.Doc
	}
	out := d.arr[:h.n]
	for i := range out {
		out[i] = Entry{}
	}
	switch d.layout {
	case layoutID:
		_, err = decodeDocGaps(body, 0, h.firstDoc, out)
	case layoutIDTerm:
		var off int
		if off, err = decodeDocGaps(body, 0, h.firstDoc, out); err == nil {
			_, err = decodeWeights(body, off, out)
		}
	case layoutScore:
		err = d.decodeScoreBody(body, out)
	case layoutChunk, layoutChunkTerm:
		err = d.decodeChunkBody(body, out)
	}
	if err != nil {
		return err
	}
	// The merge combinators and the seeks rely on the order the builders
	// enforce; rotted bytes that still parse must not reach them out of it.
	for i := range out {
		e := &out[i]
		if e.Doc < 0 || havePrev && (e.SortKey > prevKey || e.SortKey == prevKey && e.Doc <= prevDoc) {
			return fmt.Errorf("%w: posting (doc %d, key %g) out of list order", codec.ErrCorrupt, e.Doc, e.SortKey)
		}
		havePrev, prevKey, prevDoc = true, e.SortKey, e.Doc
	}
	d.decoded += h.n
	d.entries = out
	d.pos = 0
	return nil
}

// decodeDocGaps fills out[i].Doc from the width byte and bitpacked gap run
// at body[off:], returning the offset past the run.
func decodeDocGaps(body []byte, off int, first DocID, out []Entry) (int, error) {
	n := len(out)
	if off >= len(body) {
		return 0, fmt.Errorf("%w: missing gap width", codec.ErrCorrupt)
	}
	w := int(body[off])
	off++
	if w > 64 {
		return 0, fmt.Errorf("%w: gap width %d", codec.ErrCorrupt, w)
	}
	plen := ((n-1)*w + 7) / 8
	if off+plen > len(body) {
		return 0, fmt.Errorf("%w: gap run truncated", codec.ErrCorrupt)
	}
	src := body[off : off+plen]
	prev := first
	out[0].Doc = first
	bitOff := uint(0)
	for i := 1; i < n; i++ {
		prev += DocID(getBits(src, bitOff, uint(w))) + 1
		bitOff += uint(w)
		out[i].Doc = prev
	}
	return off + plen, nil
}

func (d *blockList) decodeScoreBody(body []byte, out []Entry) error {
	off := 0
	prevRank := -1
	for i := range out {
		c, sz, err := codec.Uvarint(body[off:])
		if err != nil {
			return err
		}
		off += sz
		var s float64
		if c == 0 {
			if s, sz, err = codec.Float64(body[off:]); err != nil {
				return err
			}
			off += sz
			prevRank = -1
		} else {
			r := int(c - 1)
			if prevRank >= 0 {
				r = prevRank + int(c-1)
			}
			if r >= len(d.dir) {
				return fmt.Errorf("%w: score rank %d outside directory of %d", codec.ErrCorrupt, r, len(d.dir))
			}
			s = d.dir[r]
			prevRank = r
		}
		doc, sz, err := codec.Uvarint(body[off:])
		if err != nil {
			return err
		}
		off += sz
		out[i] = Entry{Doc: DocID(doc), SortKey: s}
	}
	return nil
}

func (d *blockList) decodeChunkBody(body []byte, out []Entry) error {
	n := len(out)
	off := 0
	first := true
	var cid int32
	for i := 0; i < n; {
		v, sz, err := codec.Uvarint(body[off:])
		if err != nil {
			return err
		}
		off += sz
		if first {
			cid = int32(uint32(v))
			first = false
		} else {
			cid = int32(int64(cid) - int64(v))
		}
		segN, sz, err := codec.Uvarint(body[off:])
		if err != nil {
			return err
		}
		off += sz
		if segN < 1 || i+int(segN) > n {
			return fmt.Errorf("%w: segment of %d postings at %d of %d", codec.ErrCorrupt, segN, i, n)
		}
		fd, sz, err := codec.Uvarint(body[off:])
		if err != nil {
			return err
		}
		off += sz
		seg := out[i : i+int(segN)]
		if off, err = decodeDocGaps(body, off, DocID(fd), seg); err != nil {
			return err
		}
		for k := range seg {
			seg[k].CID = cid
			seg[k].SortKey = float64(cid)
		}
		i += int(segN)
	}
	if d.layout == layoutChunkTerm {
		if _, err := decodeWeights(body, off, out); err != nil {
			return err
		}
	}
	return nil
}

// blockMax caps a block frame's posting bound at what remains of the open
// super-block.
func (d *blockList) blockMax() int {
	if d.superLeft < blockCap {
		return d.superLeft
	}
	return blockCap
}

// NextBatch implements BatchIterator.
func (d *blockList) NextBatch(out []Entry) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	n := 0
	for n < len(out) {
		if d.pos < len(d.entries) {
			c := copy(out[n:], d.entries[d.pos:])
			d.pos += c
			n += c
			continue
		}
		if d.decoded >= d.count {
			break
		}
		if d.superLeft == 0 {
			sh, err := d.readHeader(d.count-d.decoded, math.MaxInt)
			if err != nil {
				d.err = fmt.Errorf("postings: posting super-block: %w", err)
				return n, d.err
			}
			d.superLeft = sh.n
			continue
		}
		h, err := d.readHeader(d.blockMax(), streamBlockSize)
		if err == nil {
			err = d.loadBlock(h)
		}
		if err != nil {
			d.err = fmt.Errorf("postings: posting block: %w", err)
			return n, d.err
		}
		d.superLeft -= h.n
	}
	return n, nil
}

// seekUntil advances the decoder so the next entry returned is the first
// for which keep reports true.  The skip headers prove, without decoding,
// that a frame cannot contain such an entry: a skipped block saves its
// body's decode, and a skipped super-block additionally saves the page
// reads of its multi-page span (the blob reader advances by offset).  If
// no entry qualifies the decoder is left exhausted.
func (d *blockList) seekUntil(skipFrame func(*blockHeader) bool, keep func(*Entry) bool) error {
	if d.err != nil {
		return d.err
	}
	fail := func(level string, err error) error {
		d.err = fmt.Errorf("postings: posting %s: %w", level, err)
		return d.err
	}
	for {
		for d.pos < len(d.entries) {
			if keep(&d.entries[d.pos]) {
				return nil
			}
			d.pos++
		}
		if d.decoded >= d.count {
			return nil
		}
		if d.superLeft == 0 {
			sh, err := d.readHeader(d.count-d.decoded, math.MaxInt)
			if err != nil {
				return fail("super-block", err)
			}
			if skipFrame(&sh) {
				if err := d.br.skip(sh.bodyLen); err != nil {
					return fail("super-block", err)
				}
				d.decoded += sh.n
				continue
			}
			d.superLeft = sh.n
			continue
		}
		h, err := d.readHeader(d.blockMax(), streamBlockSize)
		if err != nil {
			return fail("block", err)
		}
		if skipFrame(&h) {
			if err := d.br.skip(h.bodyLen); err != nil {
				return fail("block", err)
			}
			d.decoded += h.n
			d.superLeft -= h.n
			d.entries = nil
			d.pos = 0
			continue
		}
		if err := d.loadBlock(h); err != nil {
			return fail("block", err)
		}
		d.superLeft -= h.n
	}
}

// seekDoc positions at the first entry with Doc >= doc (ID layouts).
func (d *blockList) seekDoc(doc DocID) error {
	return d.seekUntil(
		func(h *blockHeader) bool { return h.lastDoc < doc },
		func(e *Entry) bool { return e.Doc >= doc },
	)
}

// seekScoreLE positions at the first entry with SortKey <= s (score layout,
// which sorts descending by score).
func (d *blockList) seekScoreLE(s float64) error {
	return d.seekUntil(
		func(h *blockHeader) bool { return h.lastKey > s },
		func(e *Entry) bool { return e.SortKey <= s },
	)
}

// seekChunkLE positions at the first entry with CID <= cid (chunk layouts,
// which sort descending by chunk ID).
func (d *blockList) seekChunkLE(cid int32) error {
	return d.seekUntil(
		func(h *blockHeader) bool { return h.lastCID > cid },
		func(e *Entry) bool { return e.CID <= cid },
	)
}
