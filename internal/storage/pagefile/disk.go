package pagefile

import (
	"bytes"
	"cmp"
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

// formatVersion is bumped whenever the on-disk layout changes.  Version 3
// drops the persisted free list (the header's chain head and length, the
// WAL's link entries and the chain stamped over freed pages): the caller
// rebuilds the free list at open from what its roots reach (File.Reclaim).
// Older versions are refused at Open.
const formatVersion = 3

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
	walMagic    = [8]byte{'S', 'V', 'R', 'W', 'A', 'L', '0', '4'}
)

// oldWALFormat reports whether wal opens with the magic of an earlier format
// (02: one record per WAL, 03: records carrying a free-list head and link
// entries), which Open refuses rather than misparses.
func oldWALFormat(wal []byte) bool {
	return bytes.HasPrefix(wal, []byte("SVRWAL02")) || bytes.HasPrefix(wal, []byte("SVRWAL03"))
}

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
//	[24:32]  last committed WAL LSN
//	[32:36]  meta length
//	[36:36+metaMax] meta (opaque application root)
//	[36+metaMax : +4] CRC32-C over all preceding bytes
//
// The header records no free pages: which pages are free follows from
// which ones the application's roots reach (File.Reclaim).
type header struct {
	pageSize int
	nPages   uint64
	lsn      uint64
	meta     []byte
}

const headerSize = 36 + metaMax + 4

func (h *header) encode() []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:8], headerMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], formatVersion)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(h.pageSize))
	binary.LittleEndian.PutUint64(buf[16:24], h.nPages)
	binary.LittleEndian.PutUint64(buf[24:32], h.lsn)
	binary.LittleEndian.PutUint32(buf[32:36], uint32(len(h.meta)))
	copy(buf[36:36+metaMax], h.meta)
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
	// The version is checked before the checksum, which an older layout
	// places elsewhere: an old file is refused, not taken for a torn header.
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != formatVersion {
		return nil, fmt.Errorf("pagefile: format version %d not supported (want %d)", v, formatVersion)
	}
	if crc := crc32.Checksum(buf[:headerSize-4], crcTable); crc != binary.LittleEndian.Uint32(buf[headerSize-4:headerSize]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	h := &header{
		pageSize: int(binary.LittleEndian.Uint32(buf[12:16])),
		nPages:   binary.LittleEndian.Uint64(buf[16:24]),
		lsn:      binary.LittleEndian.Uint64(buf[24:32]),
	}
	metaLen := binary.LittleEndian.Uint32(buf[32:36])
	if metaLen > metaMax {
		return nil, fmt.Errorf("%w: meta length %d exceeds %d", ErrCorrupt, metaLen, metaMax)
	}
	if metaLen > 0 {
		h.meta = append([]byte(nil), buf[36:36+metaLen]...)
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
// (N+1)·pageSize) and a write-ahead log at path+".wal".  It is no-force, in
// the ARIES sense: a commit forces the log, not the pages.
//
// All writes — page writes, allocations, frees — are staged in memory until
// Commit, which
//
//  1. appends one WAL record holding, per staged page, the byte ranges in
//     which it differs from its last committed image (wal.go), plus the
//     post-commit header state, at the WAL's tail and fsyncs it (the commit
//     point);
//  2. moves the staged images into the held set: committed pages the data
//     file does not have yet.
//
// A checkpoint writes every held page back once, in ascending page order —
// except a page freed by a commit whose bytes the data file already covers
// (heldFree): its bytes are dead — then the header with the last commit's
// state, fsyncs the data file and truncates the WAL.  It runs when the held images or the WAL written since
// the last checkpoint reach checkpointBytes, and at Close.
//
// A crash before (1) completes loses the staged writes and recovers the
// previous committed state; a crash after it replays the WAL's records on
// the next Open.  The data file is only ever written by a checkpoint, with
// committed images, which also makes it safe for a commit window to reuse
// pages freed in the same window.  A failure inside a checkpoint poisons the
// handle: the WAL then holds the only complete copy of the commits since the
// last checkpoint, so every later call returns the same error and the way
// forward is to reopen and replay.
//
// The free list lives in memory only.  Free pushes the page and logs
// nothing: which pages are free is already said by the roots the caller
// commits, since a freed page is one they no longer reach.  A reopened file
// starts with no free page, and its caller rebuilds the list from what its
// roots reach (Reclaim), which also returns the pages a crash left retired
// but never freed.
type diskFile struct {
	pageSize int
	path     string
	data     backing
	wal      backing

	mu     sync.RWMutex
	closed bool
	// failed is the sticky error of a checkpoint that broke.
	failed error
	nPages uint64 // allocated, including uncommitted allocations
	// head is the header state of the last commit: what the next checkpoint
	// writes to page 0.  head.nPages is the committed page count.
	head header
	// staged holds the full post-image of every page written or allocated in
	// this window, and freedIn the pages the window freed.
	staged  map[PageID][]byte
	freedIn []PageID
	// held is the committed images of the commits since the last checkpoint,
	// and heldFree the held pages a commit since freed.  The checkpoint skips
	// those inside filePages: their bytes are dead.  heldFree is as of the
	// last commit, not the free set, which counts the open window's frees:
	// Close checkpoints with the window discarded, so a page the window
	// freed is live and written whole.
	held     map[PageID][]byte
	heldFree map[PageID]struct{}
	// filePages is the data file's length in pages as of the last checkpoint
	// (or Open).  A page past it must be written whole, or the file ends
	// inside it and a later before-image read of it fails.
	filePages uint64
	// The free stack and the reserved pages.
	freeStack
	// reusedIn holds the pages this window took from the free stack, true
	// for those that were the page their allocation asked for: the classes
	// of Stats' WAL bytes.
	reusedIn map[PageID]bool
	// walTail is the WAL's length: the bytes appended since the last
	// checkpoint, and where the next record goes.
	walTail int64
	// checkpointBytes is the size of the held images, and of the WAL, at
	// which a commit checkpoints (maxSpareBytes; tests lower it).
	checkpointBytes int

	// Commit scratch, reused across commits: retired staging buffers, the
	// sorted page list, the before-image, the run list and the WAL record.
	spare [][]byte
	ids   []PageID
	base  []byte
	zero  []byte
	runs  []byteRun
	// zeroRuns is a page's runs against zeros, when they compete with runs.
	zeroRuns []byteRun
	walBuf   []byte
	// classBytes is the record's entry bytes by class, counted once it is
	// committed.
	classBytes [walClasses]uint64

	counters
}

// Bounds on what the handle keeps between commits.  maxSpareBytes bounds
// the held images and the recycled staging buffers together, and the held
// images and the WAL between checkpoints; maxWALScratch bounds the record
// buffer, so that one bulk-load commit does not pin its footprint for the
// life of the handle.
const (
	maxSpareBytes = 4 << 20
	maxWALScratch = 8 << 20
)

// WALPath returns the write-ahead log path for a data file path.
func WALPath(path string) string { return path + ".wal" }

// Open creates or opens a durable page file at path.  A new file is
// initialized with an empty committed header before Open returns; an
// existing file is recovered: the header is validated, the WAL's records
// since the last checkpoint are replayed and a torn WAL tail is discarded.
// The free list starts empty: see Reclaim.
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
		path:            path,
		staged:          map[PageID][]byte{},
		held:            map[PageID][]byte{},
		heldFree:        map[PageID]struct{}{},
		reusedIn:        map[PageID]bool{},
		freeStack:       freeStack{freeSet: map[PageID]struct{}{}},
		checkpointBytes: maxSpareBytes,
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
		f.head = header{pageSize: f.pageSize}
		if err := f.writeHeader(&f.head); err != nil {
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
// parse the WAL's chain of records since the last checkpoint, replay it
// unless the header is provably past it, and truncate the data file to the
// committed length and the WAL to zero.
// dataSize is the data file's length, the bound on how many pages the chain
// may claim.
func (f *diskFile) recover(wantPageSize int, dataSize int64) error {
	hdrBuf := make([]byte, headerSize)
	var hdr *header
	if _, err := f.data.ReadAt(hdrBuf, 0); err == nil {
		if h, err := decodeHeader(hdrBuf); err == nil {
			hdr = h
		} else if errors.Is(err, ErrCorrupt) {
			// Torn header write: fall through to the WAL, which always holds
			// the chain whose checkpoint was rewriting it.
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
	if oldWALFormat(walBuf) {
		return fmt.Errorf("pagefile: WAL %s is format %s, this release reads %s: recover the file with the release that wrote it", WALPath(f.path), walBuf[:len(walMagic)], walMagic[:])
	}
	// The chain is the LSN-contiguous run of records from offset 0.  A
	// checkpoint truncates the WAL without an fsync, so a record that does
	// not follow its predecessor is a stale one from before a truncate that
	// never reached the disk, and ends the chain like a torn tail does.
	var chain []*walRecord
	for off := 0; off < len(walBuf); {
		rec, n, err := decodeWALRecord(walBuf[off:], pageSize)
		if err != nil {
			// Torn tail: the commit that wrote it never reached its fsync
			// acknowledgement, so discarding it is the correct recovery.
			f.tornPages.Add(1)
			break
		}
		if rec == nil || (len(chain) > 0 && rec.lsn != chain[len(chain)-1].lsn+1) {
			break
		}
		pageSize = rec.pageSize
		chain = append(chain, rec)
		off += n
	}
	if pageSize == 0 {
		// No header, no WAL record: the corrupt-file error below fires; the
		// default only keeps pageOffset arithmetic sane until then.
		pageSize = DefaultDiskPageSize
	}
	f.pageSize = pageSize

	switch {
	case hdr == nil && len(chain) == 0:
		return fmt.Errorf("%w: no valid header and no valid WAL record in %s", ErrCorrupt, f.path)
	case len(chain) == 0:
	case hdr != nil && chain[len(chain)-1].lsn < hdr.lsn:
		// Stale records only: the header is past all of them.
	case hdr != nil && chain[0].lsn > hdr.lsn+1:
		return fmt.Errorf("%w: WAL starts at commit %d, the data file is at commit %d", ErrCorrupt, chain[0].lsn, hdr.lsn)
	default:
		// Roll the chain forward.  A checkpoint puts the pages and the header
		// under one fsync with no order between them, so a header already at
		// the chain's LSN proves nothing about the pages: the WAL is
		// truncated only after that fsync, and a chain still here may be
		// half written back.  Replaying a written-back chain is harmless.
		if err := f.replay(chain, dataSize); err != nil {
			return err
		}
		hdr = &chain[len(chain)-1].header
	}

	f.head = *hdr
	f.nPages = hdr.nPages
	f.filePages = hdr.nPages

	// Drop any garbage past the committed end (pages allocated by an
	// uncommitted window before the crash) and the consumed WAL.
	if err := f.data.Truncate(f.pageOffset(PageID(f.nPages))); err != nil {
		return fmt.Errorf("pagefile: truncate data: %w", err)
	}
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("pagefile: truncate WAL: %w", err)
	}
	return nil
}

// entryRef names entry e of chain record r.
type entryRef struct{ r, e int }

// replay applies a chain of committed records to the data file, each page's
// entries in LSN order over the bytes the file holds for it, and writes the
// last record's header.  It runs twice over the pages: the first pass only
// rebuilds every final image and checks it against the checksum its last
// delta logged, so a chain whose base pages are not the ones it was cut
// against is refused before a single byte is written.  Only the final image
// can be checked: over a checkpoint torn mid-write the base may already hold
// later bytes than an earlier record expects, which the later records
// overwrite again.
func (f *diskFile) replay(chain []*walRecord, dataSize int64) error {
	var refs []entryRef
	for r, rec := range chain {
		for e := range rec.entries {
			refs = append(refs, entryRef{r, e})
		}
	}
	// Every page a window allocates is staged, hence logged: a chain cannot
	// grow the file by more pages than it carries entries.
	last := chain[len(chain)-1]
	if have := uint64(dataSize) / uint64(f.pageSize); last.nPages > have+uint64(len(refs)) {
		return fmt.Errorf("%w: WAL claims %d pages, file holds %d and the chain %d entries", ErrCorrupt, last.nPages, have, len(refs))
	}
	entry := func(ref entryRef) *walEntry { return &chain[ref.r].entries[ref.e] }
	// Records list their entries in page order, so a stable sort by page
	// keeps each page's entries in LSN order.
	slices.SortStableFunc(refs, func(a, b entryRef) int { return cmp.Compare(entry(a).id, entry(b).id) })

	page := make([]byte, f.pageSize)
	for _, write := range []bool{false, true} {
		for i := 0; i < len(refs); {
			id := entry(refs[i]).id
			j := i
			for j < len(refs) && entry(refs[j]).id == id {
				j++
			}
			group := refs[i:j]
			i = j
			off := f.pageOffset(id)
			clear(page)
			if entry(group[0]).kind != entryDeltaOnZero {
				// A short read leaves zeros; the checksum decides whether
				// that is the page the chain expects.
				if _, err := f.data.ReadAt(page, off); err != nil && err != io.EOF {
					return fmt.Errorf("pagefile: recovery read page %d: %w", id, err)
				}
			}
			for _, ref := range group {
				e := entry(ref)
				if e.kind == entryDeltaOnZero {
					clear(page)
				}
				applyRuns(page, e.runs)
			}
			if !write {
				if crc32.Checksum(page, crcTable) != entry(group[len(group)-1]).crc {
					return fmt.Errorf("%w: page %d does not match WAL record %d (base page changed under the log)", ErrCorrupt, id, chain[group[len(group)-1].r].lsn)
				}
				continue
			}
			if _, err := f.data.WriteAt(page, off); err != nil {
				return fmt.Errorf("pagefile: recovery write page %d: %w", id, err)
			}
		}
	}
	if err := f.writeHeader(&last.header); err != nil {
		return err
	}
	if err := f.data.Sync(); err != nil {
		return fmt.Errorf("pagefile: recovery sync: %w", err)
	}
	f.fsyncs.Add(1)
	f.recoveries.Add(1)
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

// retireBufLocked keeps a staging buffer for reuse while the spare and the
// held buffers together stay within maxSpareBytes.
func (f *diskFile) retireBufLocked(buf []byte) {
	if (len(f.spare)+len(f.held)+1)*f.pageSize <= maxSpareBytes {
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
	}
	return buf
}

// stagePageLocked stages id as a zeroed page.
func (f *diskFile) stagePageLocked(id PageID) []byte {
	buf := f.stageBufLocked(id)
	clear(buf)
	return buf
}

func (f *diskFile) Allocate(prefer PageID) (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return InvalidPageID, err
	}
	f.allocs.Add(1)
	i, how := f.pick(prefer, &f.counters)
	if i < 0 {
		id := PageID(f.nPages)
		f.nPages++
		f.stagePageLocked(id)
		return id, nil
	}
	id := f.free[i]
	f.remove(i, 1)
	f.reuses.Add(1)
	f.reusedIn[id] = how == allocPreferred
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
	if i, first, ok := f.pickRun(n, &f.counters); ok {
		f.remove(i, n)
		f.reuses.Add(uint64(n))
		for i := 0; i < n; i++ {
			f.reusedIn[first+PageID(i)] = false
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

func (f *diskFile) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	if uint64(id) >= f.nPages {
		return fmt.Errorf("%w: free page %d of %d", ErrPageOutOfRange, id, f.nPages)
	}
	if err := f.push(id); err != nil {
		return err
	}
	if uint64(id) >= f.head.nPages {
		// Born in this window: the commit must still log the page, or the
		// file would end before it, so it logs as zeros.
		f.stagePageLocked(id)
	} else if buf, ok := f.staged[id]; ok {
		// A committed page keeps its committed bytes: nothing is logged.
		delete(f.staged, id)
		f.retireBufLocked(buf)
	}
	f.freedIn = append(f.freedIn, id)
	f.frees.Add(1)
	return nil
}

// Reclaim replaces the free list with every page below NumPages that live
// does not list, pushed from the highest page down so that allocation takes
// the lowest first.
func (f *diskFile) Reclaim(live []PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	return f.reclaim(live, f.nPages)
}

func (f *diskFile) Reserve(id PageID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reserve(id, &f.counters)
}

func (f *diskFile) Release(id PageID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.release(id, &f.counters)
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
	if uint64(id) >= f.head.nPages {
		// Allocated this window but never written or staged (cannot happen
		// through the public API, which stages zeros on allocation); keep
		// the invariant anyway.
		clear(dst[:f.pageSize])
		return nil
	}
	return f.committedImageLocked(id, dst)
}

// committedImageLocked copies the last committed image of page id into dst:
// the held image, else the data file's bytes.  Reading the data file here is
// internal I/O, not a counted page read.
func (f *diskFile) committedImageLocked(id PageID, dst []byte) error {
	if img, ok := f.held[id]; ok {
		copy(dst, img)
		return nil
	}
	if _, err := f.data.ReadAt(dst[:f.pageSize], f.pageOffset(id)); err != nil {
		return fmt.Errorf("pagefile: read page %d: %w", id, err)
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
	copy(f.stageBufLocked(id), src[:f.pageSize])
	return nil
}

// Commit runs the commit protocol described on diskFile, and a checkpoint
// when the held images or the WAL have reached checkpointBytes.  It is a
// no-op when nothing changed since the last commit.
func (f *diskFile) Commit(meta []byte) error {
	if len(meta) > metaMax {
		return fmt.Errorf("pagefile: commit meta of %d bytes exceeds maximum %d", len(meta), metaMax)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	if len(f.staged) == 0 && f.nPages == f.head.nPages && bytes.Equal(meta, f.head.meta) {
		return nil
	}

	hdr := header{
		pageSize: f.pageSize,
		nPages:   f.nPages,
		lsn:      f.head.lsn + 1,
		meta:     append([]byte(nil), meta...),
	}
	f.ids = f.ids[:0]
	for id := range f.staged {
		f.ids = append(f.ids, id)
	}
	slices.Sort(f.ids)

	// Cut the record: every staged page against its last committed image.
	// A read failure here is before the commit point and leaves the window
	// staged.
	if err := f.encodeWALRecord(&hdr); err != nil {
		return err
	}

	// WAL append + fsync: the commit point.  A failure leaves the window
	// staged and the tail where it was, so a retry overwrites what landed.
	if _, err := f.wal.WriteAt(f.walBuf, f.walTail); err != nil {
		return fmt.Errorf("pagefile: WAL write: %w", err)
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("pagefile: WAL sync: %w", err)
	}
	f.walTail += int64(len(f.walBuf))
	f.walBytes.Add(uint64(len(f.walBuf)))
	f.fsyncs.Add(1)
	f.loggedPages.Add(uint64(len(f.staged)))
	f.commits.Add(1)
	for c, n := range f.classBytes {
		f.walClass[c].Add(n)
	}
	if cap(f.walBuf) > maxWALScratch {
		f.walBuf = nil
	}

	// The window is committed: its images become held, and the held pages
	// it freed dead.
	for id, buf := range f.staged {
		if old, ok := f.held[id]; ok {
			f.retireBufLocked(old)
		}
		f.held[id] = buf
		delete(f.heldFree, id)
	}
	for _, id := range f.freedIn {
		_, held := f.held[id]
		if _, free := f.freeSet[id]; held && free {
			f.heldFree[id] = struct{}{}
		}
	}
	f.freedIn = f.freedIn[:0]
	if len(f.staged)*f.pageSize > maxSpareBytes {
		// A bulk window: clearing would keep its bucket array for good.
		f.staged = map[PageID][]byte{}
	} else {
		clear(f.staged)
	}
	clear(f.reusedIn)
	f.head = hdr
	f.setGaugesLocked()

	if len(f.held)*f.pageSize >= f.checkpointBytes || f.walTail >= int64(f.checkpointBytes) {
		return f.checkpointLocked()
	}
	return nil
}

// setGaugesLocked publishes the held-page and pending-WAL gauges.
func (f *diskFile) setGaugesLocked() {
	f.heldPages.Store(uint64(len(f.held)))
	f.walPending.Store(uint64(f.walTail))
}

// checkpointLocked writes the held pages back and truncates the WAL; a
// failure poisons the handle.
func (f *diskFile) checkpointLocked() error {
	if err := f.writeBackLocked(); err != nil {
		f.failed = fmt.Errorf("pagefile: checkpoint of commit %d failed, reopen the file to recover it from the WAL: %w", f.head.lsn, err)
		return f.failed
	}
	f.checkpoints.Add(1)
	return nil
}

func (f *diskFile) writeBackLocked() error {
	f.ids = f.ids[:0]
	for id := range f.held {
		f.ids = append(f.ids, id)
	}
	slices.Sort(f.ids)
	for _, id := range f.ids {
		if _, free := f.heldFree[id]; free && uint64(id) < f.filePages {
			continue
		}
		img := f.held[id]
		if _, err := f.data.WriteAt(img, f.pageOffset(id)); err != nil {
			return fmt.Errorf("pagefile: write back page %d: %w", id, err)
		}
		f.writes.Add(1)
		f.bytesWritten.Add(uint64(len(img)))
	}
	if err := f.writeHeader(&f.head); err != nil {
		return err
	}
	if err := f.data.Sync(); err != nil {
		return fmt.Errorf("pagefile: data sync: %w", err)
	}
	f.fsyncs.Add(1)

	// The chain is written back: drop it.  Leaving it in place would be
	// harmless (recovery replays it over its own result, and a stale record
	// never follows the next commit's LSN), so the truncate is not fsynced.
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("pagefile: WAL truncate: %w", err)
	}
	f.walTail = 0
	f.filePages = f.head.nPages
	// The written images are dropped, not kept as spare: refilling the spare
	// list with a checkpoint's worth of buffers would keep the held set's
	// peak footprint for good, where a window recycles far fewer.
	if len(f.held)*f.pageSize > maxSpareBytes {
		// As for staged: a bulk commit's bucket array should not stay.
		f.held = map[PageID][]byte{}
	} else {
		clear(f.held)
	}
	clear(f.heldFree)
	f.setGaugesLocked()
	return nil
}

func (f *diskFile) Meta() []byte {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.head.meta == nil {
		return nil
	}
	return append([]byte(nil), f.head.meta...)
}

func (f *diskFile) Stats() Stats { return f.counters.snapshot() }

func (f *diskFile) ResetStats() { f.counters.reset() }

func (f *diskFile) SizeBytes() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nPages * uint64(f.pageSize)
}

// Close discards the uncommitted window and checkpoints what earlier commits
// left in the WAL, unless the handle is poisoned.
func (f *diskFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var errs []error
	if f.failed == nil && f.walTail > 0 {
		if err := f.checkpointLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	// A closed handle may stay referenced; it should not pin its scratch.
	f.staged, f.freedIn, f.held, f.heldFree, f.spare, f.walBuf = nil, nil, nil, nil, nil, nil
	if err := f.data.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := f.wal.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
