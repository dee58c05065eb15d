package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
)

// DefaultDiskPageSize is the page size of a durable file unless the creator
// overrides it.  4 KiB matches the physical sector/page granularity of the
// disks the paper's cost model charges per page touched.
const DefaultDiskPageSize = 4096

// formatVersion is bumped whenever the on-disk layout changes.  Version 2
// logs byte-range deltas (WAL v2) and leaves a freed page's old bytes in
// place under its chain link; version 1 files are refused at Open.
const formatVersion = 2

// minDiskPageSize keeps the fixed header comfortably inside physical page 0.
const minDiskPageSize = 512

// maxDiskPageSize bounds the page size a WAL record may claim, so a corrupt
// record cannot make recovery compute an absurd record length before the
// checksum gets a chance to reject it.
const maxDiskPageSize = 1 << 22

// metaMax bounds the opaque application root stored in the header (the
// engine keeps a catalog pointer there, a few dozen bytes).
const metaMax = 256

var (
	headerMagic = [8]byte{'S', 'V', 'R', 'D', 'B', 'P', 'F', '1'}
	walMagic    = [8]byte{'S', 'V', 'R', 'W', 'A', 'L', '0', '2'}
	// freePageMagic stamps the first 8 bytes of an on-disk free-list chain
	// page so that a corrupted chain is detected instead of walked blindly.
	freePageMagic = uint64(0x5356524652454531) // "SVRFREE1"
)

// crcTable is the Castagnoli polynomial, the common choice for storage
// checksums (hardware accelerated on most CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped into Open errors when neither the header nor the
// write-ahead log yields a consistent committed state.
var ErrCorrupt = errors.New("pagefile: file is corrupt")

// ErrClosed is returned by operations on a closed durable file.
var ErrClosed = errors.New("pagefile: file is closed")

// header is the decoded form of physical page 0.
//
// Layout (little-endian):
//
//	[0:8]    magic "SVRDBPF1"
//	[8:12]   format version
//	[12:16]  page size
//	[16:24]  committed page count
//	[24:32]  free-list chain head (InvalidPageID when empty)
//	[32:40]  free-list length
//	[40:48]  last committed WAL LSN
//	[48:52]  meta length
//	[52:52+metaMax] meta (opaque application root)
//	[52+metaMax : +4] CRC32-C over all preceding bytes
type header struct {
	pageSize  int
	nPages    uint64
	freeHead  PageID
	freeCount uint64
	lsn       uint64
	meta      []byte
}

const headerSize = 52 + metaMax + 4

func (h *header) encode() []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:8], headerMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], formatVersion)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(h.pageSize))
	binary.LittleEndian.PutUint64(buf[16:24], h.nPages)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(h.freeHead))
	binary.LittleEndian.PutUint64(buf[32:40], h.freeCount)
	binary.LittleEndian.PutUint64(buf[40:48], h.lsn)
	binary.LittleEndian.PutUint32(buf[48:52], uint32(len(h.meta)))
	copy(buf[52:52+metaMax], h.meta)
	crc := crc32.Checksum(buf[:headerSize-4], crcTable)
	binary.LittleEndian.PutUint32(buf[headerSize-4:], crc)
	return buf
}

func decodeHeader(buf []byte) (*header, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	if !bytes.Equal(buf[0:8], headerMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if crc := crc32.Checksum(buf[:headerSize-4], crcTable); crc != binary.LittleEndian.Uint32(buf[headerSize-4:headerSize]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != formatVersion {
		return nil, fmt.Errorf("pagefile: format version %d not supported (want %d)", v, formatVersion)
	}
	h := &header{
		pageSize:  int(binary.LittleEndian.Uint32(buf[12:16])),
		nPages:    binary.LittleEndian.Uint64(buf[16:24]),
		freeHead:  PageID(binary.LittleEndian.Uint64(buf[24:32])),
		freeCount: binary.LittleEndian.Uint64(buf[32:40]),
		lsn:       binary.LittleEndian.Uint64(buf[40:48]),
	}
	metaLen := binary.LittleEndian.Uint32(buf[48:52])
	if metaLen > metaMax {
		return nil, fmt.Errorf("%w: meta length %d exceeds %d", ErrCorrupt, metaLen, metaMax)
	}
	if metaLen > 0 {
		h.meta = append([]byte(nil), buf[52:52+metaLen]...)
	}
	if h.pageSize < minDiskPageSize {
		return nil, fmt.Errorf("%w: page size %d below minimum %d", ErrCorrupt, h.pageSize, minDiskPageSize)
	}
	return h, nil
}

// backing is the subset of *os.File the durable backend needs; the fault
// injector wraps it to fail deterministically at chosen I/O sites.
type backing interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Option configures Open.
type Option func(*openOptions)

type openOptions struct {
	pageSize int
	faults   *FaultInjector
}

// WithPageSize sets the page size used when creating a new file.  Opening an
// existing file with a different explicit page size is an error; pass 0 (or
// omit the option) to accept whatever the header records.
func WithPageSize(n int) Option { return func(o *openOptions) { o.pageSize = n } }

// WithFaults installs a deterministic fault-injection layer under the file:
// every WriteAt/ReadAt/Sync on the data file and the WAL consults the
// injector first.  Crash-point tests use it to fail the Nth I/O, tear a
// write in half, or break fsync, then reopen without faults and assert
// recovery.
func WithFaults(fi *FaultInjector) Option { return func(o *openOptions) { o.faults = fi } }

// diskFile is the durable backend: a page file at path with a checksummed
// header on physical page 0 (logical page id N lives at byte offset
// (N+1)·pageSize) and a write-ahead log at path+".wal".
//
// All writes — page writes, allocations, frees — are staged in memory and
// reach the data file only inside Commit:
//
//  1. one WAL record holding, per staged page, the byte ranges in which it
//     differs from what the data file holds (wal.go), plus the post-commit
//     header state, is written and fsynced (the commit point);
//  2. the staged images are written back in place in ascending page order,
//     the header is rewritten, and the data file is fsynced;
//  3. the WAL is truncated (the checkpoint).
//
// A crash before (1) completes loses the staged writes and recovers the
// previous committed state; a crash after (1) replays the record on the
// next Open and recovers the new state.  Committed pages are therefore
// never overwritten in place by uncommitted data, which also makes it safe
// for a commit window to reuse pages freed in the same window.  A failure
// after (1) poisons the handle: the WAL then holds the only complete copy of
// an acknowledged commit, so every later call returns the same error and the
// way forward is to reopen and replay.
//
// The free list is persisted as an on-disk chain threaded through the freed
// pages themselves: each carries [freePageMagic][next PageID] in its first
// 16 bytes (the rest of a freed page is whatever it last held), the header
// records the chain head and length, and Free stages the link like any other
// write so the chain always commits atomically with the state that freed it.
type diskFile struct {
	pageSize int
	path     string
	data     backing
	wal      backing

	mu     sync.RWMutex
	closed bool
	// failed is the sticky error of a commit that broke after its commit
	// point.
	failed    error
	nPages    uint64 // allocated, including uncommitted allocations
	committed uint64 // page count as of the last commit
	// staged holds the full post-image of every page written or allocated in
	// this window; links holds, for committed pages freed in this window, the
	// chain link that overwrites their first freeLinkSize bytes.  A page is in
	// at most one of the two.
	staged  map[PageID][]byte
	links   map[PageID]PageID
	free    []PageID // stack; free[len-1] is the chain head
	freeSet map[PageID]struct{}
	lsn     uint64
	meta    []byte

	// Commit scratch, reused across commits: retired staging buffers, the
	// sorted page list, the before-image, the run list and the WAL record.
	spare  [][]byte
	ids    []PageID
	base   []byte
	zero   []byte
	runs   []byteRun
	walBuf []byte

	counters
}

// freeLinkSize is the length of the chain link a free page carries.
const freeLinkSize = 16

// Bounds on the scratch a commit may leave behind, so that one bulk-load
// commit does not pin its footprint for the life of the handle.
const (
	maxSpareBytes = 4 << 20
	maxWALScratch = 8 << 20
)

func putFreeLink(dst []byte, next PageID) {
	binary.LittleEndian.PutUint64(dst[0:8], freePageMagic)
	binary.LittleEndian.PutUint64(dst[8:16], uint64(next))
}

// WALPath returns the write-ahead log path for a data file path.
func WALPath(path string) string { return path + ".wal" }

// Open creates or opens a durable page file at path.  A new file is
// initialized with an empty committed header before Open returns; an
// existing file is recovered: the header is validated, any complete WAL
// record is replayed, a torn WAL tail is discarded, and the persisted free
// list is loaded.
func Open(path string, opts ...Option) (File, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.pageSize != 0 && o.pageSize < minDiskPageSize {
		return nil, fmt.Errorf("%w: %d (minimum %d)", ErrBadPageSize, o.pageSize, minDiskPageSize)
	}

	dataFD, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	walFD, err := os.OpenFile(WALPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		dataFD.Close()
		return nil, fmt.Errorf("pagefile: open %s: %w", WALPath(path), err)
	}

	f := &diskFile{
		path:    path,
		staged:  map[PageID][]byte{},
		links:   map[PageID]PageID{},
		freeSet: map[PageID]struct{}{},
	}
	f.data = o.faults.wrap(dataFD)
	f.wal = o.faults.wrap(walFD)

	info, err := dataFD.Stat()
	if err != nil {
		f.closeHandles()
		return nil, fmt.Errorf("pagefile: stat %s: %w", path, err)
	}

	if info.Size() == 0 {
		// Fresh file: write an empty committed header so that a crash right
		// after creation still opens cleanly.
		f.pageSize = o.pageSize
		if f.pageSize == 0 {
			f.pageSize = DefaultDiskPageSize
		}
		hdr := header{pageSize: f.pageSize, freeHead: InvalidPageID}
		if err := f.writeHeader(&hdr); err != nil {
			f.closeHandles()
			return nil, err
		}
		if err := f.data.Sync(); err != nil {
			f.closeHandles()
			return nil, fmt.Errorf("pagefile: sync %s: %w", path, err)
		}
		f.fsyncs.Add(1)
	} else if err := f.recover(o.pageSize, info.Size()); err != nil {
		f.closeHandles()
		return nil, err
	}
	f.base = make([]byte, f.pageSize)
	f.zero = make([]byte, f.pageSize)
	return f, nil
}

func (f *diskFile) closeHandles() {
	f.data.Close()
	f.wal.Close()
}

// writeHeader encodes hdr into physical page 0 (padded to a full page).
func (f *diskFile) writeHeader(hdr *header) error {
	page := make([]byte, f.pageSize)
	copy(page, hdr.encode())
	if _, err := f.data.WriteAt(page, 0); err != nil {
		return fmt.Errorf("pagefile: write header: %w", err)
	}
	return nil
}

// pageOffset maps a logical page ID to its byte offset in the data file.
func (f *diskFile) pageOffset(id PageID) int64 {
	return (int64(id) + 1) * int64(f.pageSize)
}

// --- recovery ---------------------------------------------------------------

// recover brings the file to its last committed state: validate the header,
// replay the last complete WAL record unless the header is provably past
// it, discard a torn WAL tail, truncate the data file to the committed
// length, and load the persisted free list.  dataSize is the data file's
// length, the bound on how many pages a record may claim.
func (f *diskFile) recover(wantPageSize int, dataSize int64) error {
	hdrBuf := make([]byte, headerSize)
	var hdr *header
	if _, err := f.data.ReadAt(hdrBuf, 0); err == nil {
		if h, err := decodeHeader(hdrBuf); err == nil {
			hdr = h
		} else if errors.Is(err, ErrCorrupt) {
			// Torn header write: fall through to the WAL, which always holds
			// the record that was rewriting it.
			f.tornPages.Add(1)
		} else {
			return err
		}
	}

	// Pin down the geometry the WAL must be parsed with.  The header is
	// authoritative when intact; otherwise each record self-describes its
	// page size (validated against the caller's, if given), so a torn header
	// never strands the replay.
	pageSize := wantPageSize
	if hdr != nil {
		if wantPageSize != 0 && hdr.pageSize != wantPageSize {
			return fmt.Errorf("%w: file has page size %d, caller wants %d", ErrBadPageSize, hdr.pageSize, wantPageSize)
		}
		pageSize = hdr.pageSize
	}

	walBuf, err := readAll(f.wal)
	if err != nil {
		return fmt.Errorf("pagefile: read WAL: %w", err)
	}
	var last *walRecord
	for off := 0; off < len(walBuf); {
		rec, n, err := decodeWALRecord(walBuf[off:], pageSize)
		if err != nil {
			// Torn tail: the commit that wrote it never reached its fsync
			// acknowledgement, so discarding it is the correct recovery.
			f.tornPages.Add(1)
			break
		}
		if rec == nil {
			break
		}
		last = rec
		off += n
	}
	if last != nil {
		pageSize = last.header.pageSize
	}
	if pageSize == 0 {
		// No header, no WAL record: the corrupt-file error below fires; the
		// default only keeps pageOffset arithmetic sane until then.
		pageSize = DefaultDiskPageSize
	}
	f.pageSize = pageSize

	switch {
	case hdr == nil && last == nil:
		return fmt.Errorf("%w: no valid header and no valid WAL record in %s", ErrCorrupt, f.path)
	case last != nil && (hdr == nil || last.lsn >= hdr.lsn):
		// Roll the record forward.  Commit puts the pages and the header
		// under one fsync with no order between them, so a header already
		// at the record's LSN proves nothing about the pages: the WAL is
		// truncated only after that fsync, and a record still here may be
		// half applied.  Replaying an applied record is harmless.
		if err := f.replay(last, dataSize); err != nil {
			return err
		}
		hdr = &last.header
	}

	f.nPages = hdr.nPages
	f.committed = hdr.nPages
	f.lsn = hdr.lsn
	f.meta = append([]byte(nil), hdr.meta...)

	// Drop any garbage past the committed end (pages allocated by an
	// uncommitted window before the crash) and the consumed WAL.
	if err := f.data.Truncate(f.pageOffset(PageID(f.nPages))); err != nil {
		return fmt.Errorf("pagefile: truncate data: %w", err)
	}
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("pagefile: truncate WAL: %w", err)
	}

	return f.loadFreeList(hdr.freeHead, hdr.freeCount)
}

// replay applies one committed record to the data file.  It runs twice over
// the entries: the first pass only rebuilds every post-image and checks it
// against the logged checksum, so a record whose base pages are not the ones
// it was cut against is refused before a single byte is written.
func (f *diskFile) replay(rec *walRecord, dataSize int64) error {
	// Every page a window allocates is staged, hence logged: a record cannot
	// grow the file by more pages than it carries.
	if have := uint64(dataSize) / uint64(f.pageSize); rec.nPages > have+uint64(len(rec.entries)) {
		return fmt.Errorf("%w: WAL record claims %d pages, file holds %d and the record %d", ErrCorrupt, rec.nPages, have, len(rec.entries))
	}
	page := make([]byte, f.pageSize)
	var link [freeLinkSize]byte
	for _, write := range []bool{false, true} {
		for i := range rec.entries {
			e := &rec.entries[i]
			off := f.pageOffset(e.id)
			if e.kind == entryFreeLink {
				if write {
					putFreeLink(link[:], e.next)
					if _, err := f.data.WriteAt(link[:], off); err != nil {
						return fmt.Errorf("pagefile: recovery write page %d: %w", e.id, err)
					}
				}
				continue
			}
			clear(page)
			if e.kind == entryDeltaOnDisk {
				// A short read leaves zeros; the checksum decides whether
				// that is the page the record expects.
				if _, err := f.data.ReadAt(page, off); err != nil && err != io.EOF {
					return fmt.Errorf("pagefile: recovery read page %d: %w", e.id, err)
				}
			}
			applyRuns(page, e.runs)
			if !write {
				if crc32.Checksum(page, crcTable) != e.crc {
					return fmt.Errorf("%w: page %d does not match WAL record %d (base page changed under the log)", ErrCorrupt, e.id, rec.lsn)
				}
				continue
			}
			if _, err := f.data.WriteAt(page, off); err != nil {
				return fmt.Errorf("pagefile: recovery write page %d: %w", e.id, err)
			}
		}
	}
	if err := f.writeHeader(&rec.header); err != nil {
		return err
	}
	if err := f.data.Sync(); err != nil {
		return fmt.Errorf("pagefile: recovery sync: %w", err)
	}
	f.fsyncs.Add(1)
	f.recoveries.Add(1)
	return nil
}

// loadFreeList walks the on-disk chain and rebuilds the in-memory stack so
// that allocation order after a reopen matches the order before it
// (chain head = top of stack).
func (f *diskFile) loadFreeList(head PageID, count uint64) error {
	if count == 0 {
		return nil
	}
	if count > f.nPages {
		return fmt.Errorf("%w: free-list length %d exceeds page count %d", ErrCorrupt, count, f.nPages)
	}
	chain := make([]PageID, 0, count)
	var link [freeLinkSize]byte
	id := head
	for i := uint64(0); i < count; i++ {
		if uint64(id) >= f.nPages {
			return fmt.Errorf("%w: free-list chain points at page %d of %d", ErrCorrupt, id, f.nPages)
		}
		if _, err := f.data.ReadAt(link[:], f.pageOffset(id)); err != nil {
			return fmt.Errorf("pagefile: read free-list page %d: %w", id, err)
		}
		if binary.LittleEndian.Uint64(link[0:8]) != freePageMagic {
			return fmt.Errorf("%w: free-list page %d lacks chain magic", ErrCorrupt, id)
		}
		chain = append(chain, id)
		id = PageID(binary.LittleEndian.Uint64(link[8:16]))
	}
	if id != InvalidPageID {
		return fmt.Errorf("%w: free-list chain longer than recorded length %d", ErrCorrupt, count)
	}
	// chain[0] is the head; the stack pops from the end.
	f.free = make([]PageID, len(chain))
	for i, p := range chain {
		f.free[len(chain)-1-i] = p
	}
	for _, p := range chain {
		f.freeSet[p] = struct{}{}
	}
	return nil
}

// --- File interface ---------------------------------------------------------

func (f *diskFile) PageSize() int { return f.pageSize }

func (f *diskFile) NumPages() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nPages
}

// usableLocked reports why the handle cannot serve a call, nil if it can.
func (f *diskFile) usableLocked() error {
	if f.closed {
		return ErrClosed
	}
	return f.failed
}

// pageBufLocked returns a page-sized buffer with arbitrary contents,
// preferring one a finished commit retired.
func (f *diskFile) pageBufLocked() []byte {
	if n := len(f.spare); n > 0 {
		buf := f.spare[n-1]
		f.spare = f.spare[:n-1]
		return buf
	}
	return make([]byte, f.pageSize)
}

// retireBufLocked keeps a staging buffer for reuse, up to maxSpareBytes.
func (f *diskFile) retireBufLocked(buf []byte) {
	if (len(f.spare)+1)*f.pageSize <= maxSpareBytes {
		f.spare = append(f.spare, buf)
	}
}

// stageBufLocked returns the staging buffer of id, contents arbitrary when
// it is new, making id a staged page.  The caller holds f.mu.
func (f *diskFile) stageBufLocked(id PageID) []byte {
	buf, ok := f.staged[id]
	if !ok {
		buf = f.pageBufLocked()
		f.staged[id] = buf
		delete(f.links, id)
	}
	return buf
}

// stagePageLocked stages id as a zeroed page.
func (f *diskFile) stagePageLocked(id PageID) []byte {
	buf := f.stageBufLocked(id)
	clear(buf)
	return buf
}

// linkFreePageLocked stages the chain link of free page id.  A committed
// page keeps its bytes in the data file and only the link is logged and
// written back, so freeing costs freeLinkSize bytes, not a page image; a page
// born in this window has nothing on disk to keep and is staged as zeros
// plus the link.
func (f *diskFile) linkFreePageLocked(id, next PageID) {
	if uint64(id) >= f.committed {
		putFreeLink(f.stagePageLocked(id), next)
		return
	}
	if buf, ok := f.staged[id]; ok {
		delete(f.staged, id)
		f.retireBufLocked(buf)
	}
	f.links[id] = next
}

func (f *diskFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return InvalidPageID, err
	}
	f.allocs.Add(1)
	if n := len(f.free); n > 0 {
		id := f.free[n-1]
		f.free = f.free[:n-1]
		delete(f.freeSet, id)
		f.reuses.Add(1)
		// Hand the page back zeroed: the staged zero image also overwrites
		// the chain link the page carried while free.
		f.stagePageLocked(id)
		return id, nil
	}
	id := PageID(f.nPages)
	f.nPages++
	f.stagePageLocked(id)
	return id, nil
}

func (f *diskFile) AllocateN(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPageID, fmt.Errorf("pagefile: AllocateN(%d): n must be positive", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return InvalidPageID, err
	}
	f.allocs.Add(uint64(n))
	if first, ok := f.takeFreeRunLocked(n); ok {
		f.reuses.Add(uint64(n))
		for i := 0; i < n; i++ {
			f.stagePageLocked(first + PageID(i))
		}
		return first, nil
	}
	first := PageID(f.nPages)
	for i := 0; i < n; i++ {
		f.stagePageLocked(first + PageID(i))
	}
	f.nPages += uint64(n)
	return first, nil
}

// takeFreeRunLocked removes an ID-contiguous, slot-adjacent run of n pages
// from the free stack.  Because the removed slots are adjacent, the on-page
// chain breaks at exactly one point: the page that sat just above the
// segment must now link to the page just below it.  Restaging that single
// link keeps the chain a future loadFreeList walks consistent with the
// stack, and the restage rides the normal WAL commit, so a crash either
// keeps the old chain or installs the new one whole.
func (f *diskFile) takeFreeRunLocked(n int) (PageID, bool) {
	i, first, ok := findFreeRun(f.free, n)
	if !ok {
		return InvalidPageID, false
	}
	if above := i + n; above < len(f.free) {
		below := InvalidPageID
		if i > 0 {
			below = f.free[i-1]
		}
		f.linkFreePageLocked(f.free[above], below)
	}
	for k := 0; k < n; k++ {
		delete(f.freeSet, f.free[i+k])
	}
	f.free = append(f.free[:i], f.free[i+n:]...)
	return first, true
}

func (f *diskFile) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	if uint64(id) >= f.nPages {
		return fmt.Errorf("%w: free page %d of %d", ErrPageOutOfRange, id, f.nPages)
	}
	if _, dup := f.freeSet[id]; dup {
		return fmt.Errorf("pagefile: double free of page %d", id)
	}
	next := InvalidPageID
	if n := len(f.free); n > 0 {
		next = f.free[n-1]
	}
	f.linkFreePageLocked(id, next)
	f.freeSet[id] = struct{}{}
	f.free = append(f.free, id)
	f.frees.Add(1)
	return nil
}

func (f *diskFile) FreePages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.free)
}

func (f *diskFile) Read(id PageID, dst []byte) error {
	if len(dst) < f.pageSize {
		return fmt.Errorf("pagefile: read buffer of %d bytes is smaller than page size %d", len(dst), f.pageSize)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	if uint64(id) >= f.nPages {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, f.nPages)
	}
	f.reads.Add(1)
	f.bytesRead.Add(uint64(f.pageSize))
	if img, ok := f.staged[id]; ok {
		copy(dst, img)
		return nil
	}
	if uint64(id) >= f.committed {
		// Allocated this window but never written or staged (cannot happen
		// through the public API, which stages zeros on allocation); keep
		// the invariant anyway.
		clear(dst[:f.pageSize])
		return nil
	}
	if _, err := f.data.ReadAt(dst[:f.pageSize], f.pageOffset(id)); err != nil {
		return fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	if next, ok := f.links[id]; ok {
		putFreeLink(dst, next)
	}
	return nil
}

func (f *diskFile) Write(id PageID, src []byte) error {
	if len(src) < f.pageSize {
		return fmt.Errorf("pagefile: write buffer of %d bytes is smaller than page size %d", len(src), f.pageSize)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	if uint64(id) >= f.nPages {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, f.nPages)
	}
	f.writes.Add(1)
	f.bytesWritten.Add(uint64(f.pageSize))
	copy(f.stageBufLocked(id), src[:f.pageSize])
	return nil
}

// Commit runs the WAL commit protocol described on diskFile.  It is a no-op
// when nothing changed since the last commit.
func (f *diskFile) Commit(meta []byte) error {
	if len(meta) > metaMax {
		return fmt.Errorf("pagefile: commit meta of %d bytes exceeds maximum %d", len(meta), metaMax)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	if len(f.staged) == 0 && len(f.links) == 0 && f.nPages == f.committed && bytes.Equal(meta, f.meta) {
		return nil
	}

	hdr := header{
		pageSize:  f.pageSize,
		nPages:    f.nPages,
		freeHead:  InvalidPageID,
		freeCount: uint64(len(f.free)),
		lsn:       f.lsn + 1,
		meta:      append([]byte(nil), meta...),
	}
	if n := len(f.free); n > 0 {
		hdr.freeHead = f.free[n-1]
	}
	f.ids = f.ids[:0]
	for id := range f.staged {
		f.ids = append(f.ids, id)
	}
	for id := range f.links {
		f.ids = append(f.ids, id)
	}
	slices.Sort(f.ids)

	// 0. Cut the record: every staged page against the bytes the data file
	// holds for it.  A read failure here is before the commit point and
	// leaves the window staged.
	if err := f.encodeWALRecord(&hdr); err != nil {
		return err
	}

	// 1. WAL append + fsync: the commit point.
	if _, err := f.wal.WriteAt(f.walBuf, 0); err != nil {
		return fmt.Errorf("pagefile: WAL write: %w", err)
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("pagefile: WAL sync: %w", err)
	}
	f.walBytes.Add(uint64(len(f.walBuf)))
	f.fsyncs.Add(1)

	if err := f.applyCommitted(&hdr); err != nil {
		f.failed = fmt.Errorf("pagefile: commit %d is logged but not applied, reopen the file to recover it: %w", hdr.lsn, err)
		return f.failed
	}

	f.lsn = hdr.lsn
	f.committed = f.nPages
	f.meta = hdr.meta
	for _, buf := range f.staged {
		f.retireBufLocked(buf)
	}
	if len(f.staged)*f.pageSize > maxSpareBytes {
		// A bulk window: clearing would keep its bucket array for good.
		f.staged = map[PageID][]byte{}
	} else {
		clear(f.staged)
	}
	clear(f.links)
	if cap(f.walBuf) > maxWALScratch {
		f.walBuf = nil
	}
	f.commits.Add(1)
	return nil
}

// applyCommitted is everything a commit does past its commit point.
func (f *diskFile) applyCommitted(hdr *header) error {
	// 2. In-place writeback + header + data fsync.  Any failure from here on
	// leaves the WAL intact; the next Open replays it.
	var link [freeLinkSize]byte
	for _, id := range f.ids {
		img := f.staged[id]
		if next, ok := f.links[id]; ok {
			putFreeLink(link[:], next)
			img = link[:]
		}
		if _, err := f.data.WriteAt(img, f.pageOffset(id)); err != nil {
			return fmt.Errorf("pagefile: writeback page %d: %w", id, err)
		}
	}
	if err := f.writeHeader(hdr); err != nil {
		return err
	}
	if err := f.data.Sync(); err != nil {
		return fmt.Errorf("pagefile: data sync: %w", err)
	}
	f.fsyncs.Add(1)

	// 3. Checkpoint: drop the consumed WAL.  Leaving it in place would be
	// harmless (replay is idempotent), so the truncate is not fsynced.
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("pagefile: WAL truncate: %w", err)
	}
	return nil
}

func (f *diskFile) Meta() []byte {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.meta == nil {
		return nil
	}
	return append([]byte(nil), f.meta...)
}

func (f *diskFile) Stats() Stats { return f.counters.snapshot() }

func (f *diskFile) ResetStats() { f.counters.reset() }

func (f *diskFile) SizeBytes() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nPages * uint64(f.pageSize)
}

func (f *diskFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	// A closed handle may stay referenced; it should not pin its scratch.
	f.staged, f.links, f.spare, f.walBuf = nil, nil, nil, nil
	var errs []error
	if err := f.data.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := f.wal.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
