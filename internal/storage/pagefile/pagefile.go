package pagefile

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used throughout the repository unless a
// caller overrides it.  8 KiB matches the BerkeleyDB default used in the
// paper's experimental setup.
const DefaultPageSize = 8192

// PageID identifies a page within a File.  Page IDs are dense and start at 0.
type PageID uint64

// InvalidPageID is a sentinel that never refers to an allocated page.
const InvalidPageID = PageID(^uint64(0))

// Stats accumulates logical I/O counters for a File.  All counters but the
// two gauges are monotonically increasing; use File.ResetStats to start a new
// measurement window.
type Stats struct {
	// Reads is the number of page reads served by the file.
	Reads uint64
	// Writes is the number of page writes the file's storage received.  On a
	// memory-backed file that is every Write call; on a durable file it is
	// every page image and free-chain link a checkpoint wrote back to the data
	// file (the header excluded), so a page rewritten by many commits between
	// two checkpoints counts once, and a commit alone counts nothing.
	Writes uint64
	// Allocs is the number of pages allocated.
	Allocs uint64
	// Frees is the number of pages returned to the free list, and Reuses the
	// number of allocations satisfied from it.  Together with Allocs they show
	// whether delete/reinsert churn is bounded (freed pages are recycled) or
	// growing the file.
	Frees  uint64
	Reuses uint64
	// PreferredReuses is the share of Reuses that got the page the caller
	// asked for (Allocate's prefer).  Its ratio to copy-on-write copies is
	// how often a B+-tree node's copy went back to its previous page.
	PreferredReuses uint64
	// BytesRead and BytesWritten are the corresponding byte totals (a
	// free-chain link a checkpoint writes is freeLinkSize bytes).
	BytesRead    uint64
	BytesWritten uint64
	// Durability counters; all zero for a memory-backed file.
	//
	// Commits counts successful Commit calls; LoggedPages the page
	// post-images those commits logged (free-chain links are not pages);
	// WALBytes the bytes appended to the write-ahead log; Checkpoints the
	// checkpoints that wrote the held pages back; Fsyncs the fsync calls
	// issued (WAL and data file); Recoveries how many Opens had to replay WAL
	// records; TornPages how many corrupt or half-written structures (torn
	// WAL tail, bad header) recovery detected and discarded.
	Commits     uint64
	LoggedPages uint64
	WALBytes    uint64
	Checkpoints uint64
	Fsyncs      uint64
	Recoveries  uint64
	TornPages   uint64
	// HeldPages and WALPending are gauges, not counters: the committed pages
	// (and free-chain links) waiting for the next checkpoint to write them
	// back, and the WAL bytes appended since the last checkpoint.
	HeldPages  uint64
	WALPending uint64
}

// File is a page-addressed storage area.
//
// Implementations are safe for concurrent use.  Two backings are provided:
// an in-memory backing (NewMem) used by tests and in-memory benchmarks, and
// a durable disk backing (Open) whose contents survive the process — see
// disk.go for the on-disk format and the WAL commit protocol.
//
// Writes to a durable file are buffered (staged) until Commit makes them
// atomically durable; a crash at any point loses at most the writes since
// the last successful Commit, never committed state.  The in-memory backing
// applies writes immediately and treats Commit as a meta store.
type File interface {
	// PageSize reports the fixed page size of the file.
	PageSize() int
	// NumPages reports how many pages have been allocated (including, for a
	// durable file, allocations not yet committed).
	NumPages() uint64
	// Allocate returns a zeroed page: a recycled one from the free list when
	// available, otherwise a freshly appended one.  prefer names the page
	// the caller would like back, InvalidPageID for none.  The recycled page
	// is prefer itself when it is free; the oldest free page when prefer was
	// given but is not free; the most recently freed page when there is no
	// preference.
	Allocate(prefer PageID) (PageID, error)
	// AllocateN allocates n consecutive pages and returns the ID of the
	// first.  It is used by the blob store to reserve space for large
	// immutable objects (the long inverted lists) in one call.  Like
	// Allocate it prefers recycling: a contiguous run of freed pages (the
	// shape a dropped index's blobs leave behind) is reused before the file
	// grows.
	AllocateN(n int) (PageID, error)
	// Free returns an allocated page to the free list for a later Allocate
	// to reuse.  The file never shrinks, but a workload that frees as it
	// allocates (delete/reinsert churn over B+-trees) stays bounded instead
	// of growing without limit.  Freeing an unallocated or already-free page
	// is an error.
	Free(id PageID) error
	// FreePages reports how many pages are currently on the free list.
	FreePages() int
	// Read copies the contents of page id into dst, which must be at least
	// PageSize bytes long.
	Read(id PageID, dst []byte) error
	// Write replaces the contents of page id with src, which must be at
	// least PageSize bytes long (only the first PageSize bytes are stored).
	Write(id PageID, src []byte) error
	// Commit atomically makes every write since the previous Commit durable
	// together with meta, a small opaque application root (the engine stores
	// its catalog pointer there).  On a durable file that is one WAL append
	// and fsync; the data file receives the pages at a later checkpoint.  On
	// a memory-backed file Commit only records meta.
	Commit(meta []byte) error
	// Meta returns the most recently committed meta, nil if none.
	Meta() []byte
	// Stats returns a snapshot of the I/O counters.
	Stats() Stats
	// ResetStats zeroes the per-window I/O counters.  Allocation counts, the
	// recovery counters and the gauges are preserved: they describe the
	// file, not a measurement window.
	ResetStats()
	// SizeBytes reports the total allocated size of the file in bytes.
	SizeBytes() uint64
	// Close releases the backing resources.  Close does not commit: staged
	// writes on a durable file are discarded (the engine commits first).  A
	// durable file checkpoints what earlier commits left in the WAL, so a
	// cleanly closed file reopens without replay.
	Close() error
}

// ErrPageOutOfRange is returned when a page ID beyond the allocated range is
// read or written.
var ErrPageOutOfRange = errors.New("pagefile: page out of range")

// ErrBadPageSize is returned by constructors when the requested page size is
// not usable.
var ErrBadPageSize = errors.New("pagefile: bad page size")

// counters groups the atomic statistics shared by both backings.
type counters struct {
	reads        atomic.Uint64
	writes       atomic.Uint64
	allocs       atomic.Uint64
	frees        atomic.Uint64
	reuses       atomic.Uint64
	preferred    atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	commits      atomic.Uint64
	loggedPages  atomic.Uint64
	walBytes     atomic.Uint64
	checkpoints  atomic.Uint64
	fsyncs       atomic.Uint64
	recoveries   atomic.Uint64
	tornPages    atomic.Uint64
	heldPages    atomic.Uint64
	walPending   atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:           c.reads.Load(),
		Writes:          c.writes.Load(),
		Allocs:          c.allocs.Load(),
		Frees:           c.frees.Load(),
		Reuses:          c.reuses.Load(),
		PreferredReuses: c.preferred.Load(),
		BytesRead:       c.bytesRead.Load(),
		BytesWritten:    c.bytesWritten.Load(),
		Commits:         c.commits.Load(),
		LoggedPages:     c.loggedPages.Load(),
		WALBytes:        c.walBytes.Load(),
		Checkpoints:     c.checkpoints.Load(),
		Fsyncs:          c.fsyncs.Load(),
		Recoveries:      c.recoveries.Load(),
		TornPages:       c.tornPages.Load(),
		HeldPages:       c.heldPages.Load(),
		WALPending:      c.walPending.Load(),
	}
}

func (c *counters) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.commits.Store(0)
	c.loggedPages.Store(0)
	c.walBytes.Store(0)
	c.checkpoints.Store(0)
	c.fsyncs.Store(0)
}

// memFile is the in-memory backing: a simulated disk with I/O counters, used
// by tests and the in-memory benchmarks.
type memFile struct {
	pageSize int

	mu   sync.RWMutex
	mem  [][]byte // page images
	slab []byte   // allocation arena pages are carved from
	meta []byte

	// free is the stack of recycled page IDs (B+-tree delete hygiene returns
	// emptied node pages here); freeSet guards against double frees, which
	// would hand the same page to two structures.
	free    []PageID
	freeSet map[PageID]struct{}

	counters
}

// NewMem creates a memory-backed file with the given page size.
func NewMem(pageSize int) (File, error) {
	if pageSize <= 0 {
		return nil, ErrBadPageSize
	}
	return &memFile{pageSize: pageSize, mem: make([][]byte, 0, 64)}, nil
}

// MustNewMem is like NewMem but panics on error.  It is intended for tests
// and examples where the page size is a constant.
func MustNewMem(pageSize int) File {
	f, err := NewMem(pageSize)
	if err != nil {
		panic(err)
	}
	return f
}

// Close drops the pages of a memory-backed file.
func (f *memFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem = nil
	return nil
}

func (f *memFile) PageSize() int { return f.pageSize }

func (f *memFile) NumPages() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return uint64(len(f.mem))
}

// memSlabPages is how many pages a memory-backed file reserves per arena
// growth; carving pages out of an arena keeps a bulk load's thousands of
// small allocations from becoming thousands of individual GC objects.
const memSlabPages = 64

// carvePageLocked returns a zeroed page buffer from the arena, growing it
// when exhausted.  The caller holds f.mu.
func (f *memFile) carvePageLocked() []byte {
	if len(f.slab) < f.pageSize {
		f.slab = make([]byte, memSlabPages*f.pageSize)
	}
	p := f.slab[:f.pageSize:f.pageSize]
	f.slab = f.slab[f.pageSize:]
	return p
}

func (f *memFile) Allocate(prefer PageID) (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.allocs.Add(1)
	if len(f.free) > 0 {
		i, hit := pickFree(f.free, f.freeSet, prefer)
		id := f.free[i]
		f.free = slices.Delete(f.free, i, i+1)
		delete(f.freeSet, id)
		f.reuses.Add(1)
		if hit {
			f.preferred.Add(1)
		}
		clear(f.mem[id])
		return id, nil
	}
	f.mem = append(f.mem, f.carvePageLocked())
	return PageID(len(f.mem) - 1), nil
}

func (f *memFile) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if uint64(id) >= uint64(len(f.mem)) {
		return fmt.Errorf("%w: free page %d of %d", ErrPageOutOfRange, id, len(f.mem))
	}
	if _, dup := f.freeSet[id]; dup {
		return fmt.Errorf("pagefile: double free of page %d", id)
	}
	if f.freeSet == nil {
		f.freeSet = map[PageID]struct{}{}
	}
	f.freeSet[id] = struct{}{}
	f.free = append(f.free, id)
	f.frees.Add(1)
	return nil
}

func (f *memFile) FreePages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.free)
}

func (f *memFile) AllocateN(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPageID, fmt.Errorf("pagefile: AllocateN(%d): n must be positive", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.allocs.Add(uint64(n))
	if i, first, ok := findFreeRun(f.free, n); ok {
		for k := 0; k < n; k++ {
			delete(f.freeSet, f.free[i+k])
		}
		f.free = append(f.free[:i], f.free[i+n:]...)
		for k := 0; k < n; k++ {
			clear(f.mem[first+PageID(k)])
		}
		f.reuses.Add(uint64(n))
		return first, nil
	}
	first := PageID(len(f.mem))
	for i := 0; i < n; i++ {
		f.mem = append(f.mem, f.carvePageLocked())
	}
	return first, nil
}

// pickFree returns the slot of a non-empty free stack that Allocate(prefer)
// takes, and whether it holds prefer itself:
//
//   - prefer is free: its own slot, searched from the top, where recently
//     freed pages sit.
//   - prefer was given but is not free: slot 0, the oldest free page.  The
//     recently retired pages near the top stay free for the copy-on-write
//     copies that will ask for them; the top would steal them.
//   - no preference: the top, the most recently freed page.
func pickFree(free []PageID, freeSet map[PageID]struct{}, prefer PageID) (int, bool) {
	if prefer == InvalidPageID {
		return len(free) - 1, false
	}
	if _, ok := freeSet[prefer]; ok {
		for i := len(free) - 1; i >= 0; i-- {
			if free[i] == prefer {
				return i, true
			}
		}
	}
	return 0, false
}

// findFreeRun scans a free stack for n pages whose IDs are consecutive and
// that occupy adjacent stack slots.  Requiring slot adjacency (not just ID
// adjacency) lets the caller remove the run by splicing the stack — and,
// for the durable backing, its on-page chain — at a single point.  Pages
// freed in ID order, the shape a dropped index's release leaves behind,
// satisfy both conditions.  Returns the segment's lowest stack index and
// the run's lowest page ID.
func findFreeRun(free []PageID, n int) (int, PageID, bool) {
	if n <= 0 || len(free) < n {
		return 0, InvalidPageID, false
	}
	if n == 1 {
		// Any free page qualifies; take the top of the stack like Allocate.
		return len(free) - 1, free[len(free)-1], true
	}
	ascLen, descLen := 1, 1
	for i := 1; i < len(free); i++ {
		if free[i] == free[i-1]+1 {
			ascLen++
		} else {
			ascLen = 1
		}
		if free[i]+1 == free[i-1] {
			descLen++
		} else {
			descLen = 1
		}
		if ascLen >= n {
			return i - n + 1, free[i-n+1], true
		}
		if descLen >= n {
			return i - n + 1, free[i], true
		}
	}
	return 0, InvalidPageID, false
}

func (f *memFile) Read(id PageID, dst []byte) error {
	if len(dst) < f.pageSize {
		return fmt.Errorf("pagefile: read buffer of %d bytes is smaller than page size %d", len(dst), f.pageSize)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if uint64(id) >= uint64(len(f.mem)) {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, len(f.mem))
	}
	f.reads.Add(1)
	f.bytesRead.Add(uint64(f.pageSize))
	copy(dst, f.mem[id])
	return nil
}

func (f *memFile) Write(id PageID, src []byte) error {
	if len(src) < f.pageSize {
		return fmt.Errorf("pagefile: write buffer of %d bytes is smaller than page size %d", len(src), f.pageSize)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if uint64(id) >= uint64(len(f.mem)) {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, len(f.mem))
	}
	f.writes.Add(1)
	f.bytesWritten.Add(uint64(f.pageSize))
	copy(f.mem[id], src[:f.pageSize])
	return nil
}

// Commit on a memory-backed file records meta; the page images are already
// "durable" for the life of the process.
func (f *memFile) Commit(meta []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.meta = append(f.meta[:0], meta...)
	f.commits.Add(1)
	return nil
}

func (f *memFile) Meta() []byte {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.meta == nil {
		return nil
	}
	return append([]byte(nil), f.meta...)
}

func (f *memFile) Stats() Stats { return f.counters.snapshot() }

func (f *memFile) ResetStats() { f.counters.reset() }

func (f *memFile) SizeBytes() uint64 {
	return f.NumPages() * uint64(f.pageSize)
}
