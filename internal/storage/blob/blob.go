package blob

import (
	"errors"
	"fmt"
	"io"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// Ref locates a blob within the store.
type Ref struct {
	// FirstPage is the first page of the blob.
	FirstPage pagefile.PageID
	// Offset is where the blob starts within FirstPage.  A blob no longer
	// than a page lies wholly inside FirstPage; a longer one starts its own
	// run of pages at offset 0.
	Offset uint32
	// Length is the blob length in bytes.
	Length uint64
}

// PageSpan reports how many pages hold the blob's bytes.
func (r Ref) PageSpan(pageSize int) uint64 {
	if r.Length == 0 {
		return 0
	}
	return (uint64(r.Offset) + r.Length + uint64(pageSize) - 1) / uint64(pageSize)
}

// Store writes and reads blobs through a buffer pool.
type Store struct {
	pool *buffer.Pool
}

// ErrOutOfRange is returned when a read extends past the end of a blob.
var ErrOutOfRange = errors.New("blob: read out of range")

// NewStore creates a store over the given pool.
func NewStore(pool *buffer.Pool) *Store { return &Store{pool: pool} }

// Pool exposes the underlying buffer pool (used by callers that need I/O
// statistics for the pages a blob read touched).
func (s *Store) Pool() *buffer.Pool { return s.pool }

// Put writes data as a blob on pages of its own and returns its Ref: it is
// the one-blob case of a Packer.  Empty blobs are valid and occupy no pages.
func (s *Store) Put(data []byte) (Ref, error) {
	p := s.NewPacker()
	ref, err := p.Put(data)
	if err != nil {
		return Ref{}, err
	}
	return ref, p.Close()
}

// Packer writes a sequence of blobs back to back.  A blob that fits in a
// page never straddles a page boundary: it goes into the page being filled
// if it fits there, else onto a fresh page.  A longer blob starts a fresh
// run of consecutive pages at offset 0, so Reader.Skip still passes its
// whole pages without faulting them.  The pages a packer fills hold only its
// own blobs, so the blobs packed together are freed together.
//
// The pages are written straight through to the file rather than via pool
// frames: blobs are written once and read back later (often much later, on
// a cold cache), so faulting every page of a fresh blob into the pool would
// only evict the structures a bulk build is actively using.  Each page is
// written once, when it is full or at Close, so a packed blob is readable
// only after Close.  A Packer is not safe for concurrent use and must not be
// used after an error.
type Packer struct {
	store *Store
	page  []byte          // contents of the page being filled
	id    pagefile.PageID // that page, InvalidPageID when none is open
	used  int             // bytes of page already holding blobs
}

// NewPacker returns a packer that writes through the store.
func (s *Store) NewPacker() *Packer {
	return &Packer{store: s, page: make([]byte, s.pool.PageSize()), id: pagefile.InvalidPageID}
}

// Put packs data as the next blob and returns its Ref.
func (p *Packer) Put(data []byte) (Ref, error) {
	if len(data) == 0 {
		return Ref{FirstPage: pagefile.InvalidPageID}, nil
	}
	pageSize := len(p.page)
	if p.id == pagefile.InvalidPageID || p.used+len(data) > pageSize {
		if err := p.flush(); err != nil {
			return Ref{}, err
		}
		n := (len(data) + pageSize - 1) / pageSize
		first, err := p.store.pool.File().AllocateN(n)
		if err != nil {
			return Ref{}, fmt.Errorf("blob: allocate %d pages: %w", n, err)
		}
		p.id, p.used = first, 0
	}
	ref := Ref{FirstPage: p.id, Offset: uint32(p.used), Length: uint64(len(data))}
	for {
		n := copy(p.page[p.used:], data)
		p.used += n
		if data = data[n:]; len(data) == 0 {
			return ref, nil
		}
		// The page is full and the blob continues on the next page of its run.
		if err := p.flush(); err != nil {
			return Ref{}, err
		}
		p.id, p.used = p.id+1, 0
	}
}

// Close writes the page being filled.  The packer must not be used after
// Close.
func (p *Packer) Close() error { return p.flush() }

// flush writes the page being filled, zero-padded past its last blob; it is
// the package's one page write.
func (p *Packer) flush() error {
	if p.id == pagefile.InvalidPageID {
		return nil
	}
	clear(p.page[p.used:])
	return p.store.pool.WriteThrough(p.id, p.page)
}

// ReadAll reads an entire blob into memory.  Query algorithms should prefer
// NewReader so that early termination avoids touching trailing pages; ReadAll
// exists for tests and for small blobs such as per-term metadata.
func (s *Store) ReadAll(ref Ref) ([]byte, error) {
	out := make([]byte, 0, ref.Length)
	r := s.NewReader(ref)
	buf := make([]byte, s.pool.PageSize())
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Reader streams a blob one page at a time.
type Reader struct {
	store *Store
	ref   Ref
	off   uint64 // absolute offset into the blob

	page      []byte // the blob's bytes on the current page
	pageBase  uint64 // blob offset of page[0]
	pagesRead int
}

// NewReader returns a Reader positioned at the start of the blob.
func (s *Store) NewReader(ref Ref) *Reader {
	return &Reader{store: s, ref: ref}
}

// PagesRead reports how many distinct page fetches this reader has issued.
// Early-terminating query algorithms use it (together with pool statistics)
// to report how much of a long list they actually scanned.
func (r *Reader) PagesRead() int { return r.pagesRead }

// Remaining reports how many bytes are left to read.
func (r *Reader) Remaining() uint64 { return r.ref.Length - r.off }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.off >= r.ref.Length {
		return 0, io.EOF
	}
	if err := r.loadPageFor(r.off); err != nil {
		return 0, err
	}
	start := r.off - r.pageBase
	n := copy(p, r.page[start:])
	r.off += uint64(n)
	if n == 0 && r.off >= r.ref.Length {
		return 0, io.EOF
	}
	return n, nil
}

// Skip advances the read position by n bytes without touching the skipped
// pages.
func (r *Reader) Skip(n uint64) error {
	if n > r.ref.Length-r.off {
		return fmt.Errorf("%w: skip %d from %d of %d", ErrOutOfRange, n, r.off, r.ref.Length)
	}
	r.off += n
	return nil
}

// loadPageFor makes r.page the blob's bytes on the page holding blob offset
// off.  Positions are counted from the start of FirstPage, so a packed
// blob's neighbours on the same page are never copied.
func (r *Reader) loadPageFor(off uint64) error {
	pageSize := uint64(r.store.pool.PageSize())
	start := uint64(r.ref.Offset)
	idx := (start + off) / pageSize
	pageLo := idx * pageSize
	lo := max(pageLo, start)
	base := lo - start
	if r.page != nil && base == r.pageBase {
		return nil
	}
	hi := min(pageLo+pageSize, start+r.ref.Length)
	fr, err := r.store.pool.Get(r.ref.FirstPage + pagefile.PageID(idx))
	if err != nil {
		return err
	}
	if uint64(cap(r.page)) < hi-lo {
		r.page = make([]byte, min(pageSize, r.ref.Length))
	}
	r.page = r.page[:hi-lo]
	copy(r.page, fr.Data()[lo-pageLo:hi-pageLo])
	fr.Release()
	r.pageBase = base
	r.pagesRead++
	return nil
}
