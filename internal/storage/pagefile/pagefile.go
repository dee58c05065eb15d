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
// three gauges are monotonically increasing; use File.ResetStats to start a
// new measurement window.
type Stats struct {
	// Reads is the number of page reads served by the file.
	Reads uint64
	// Writes is the number of page writes the file's storage received.  On a
	// memory-backed file that is every Write call; on a durable file it is
	// every page image a checkpoint wrote back to the data file (the header
	// excluded), so a page rewritten by many commits between two checkpoints
	// counts once, a page freed since it was held counts nothing, and a
	// commit alone counts nothing.
	Writes uint64
	// Allocs is the number of pages allocated.
	Allocs uint64
	// Frees is the number of pages returned to the free list, and Reuses the
	// number of allocations satisfied from it.  Together with Allocs they show
	// whether delete/reinsert churn is bounded (freed pages are recycled) or
	// growing the file.
	Frees  uint64
	Reuses uint64
	// Allocation outcomes.  PreferredReuses counts the allocations that got
	// the page they asked for (Allocate's prefer); its ratio to
	// copy-on-write copies is how often a B+-tree node's copy went back to
	// its previous page.  PreferMisses counts those that asked for a page
	// that was not free and took an unreserved free page instead,
	// PreferGrows those that found no unreserved free page and grew the
	// file.  Unpreferred counts the pages allocated with no preference
	// (Allocate(InvalidPageID), AllocateN), and ReservedTaken the share of
	// them that took a reserved page because no unreserved one was free.
	PreferredReuses uint64
	PreferMisses    uint64
	PreferGrows     uint64
	Unpreferred     uint64
	ReservedTaken   uint64
	// BytesRead and BytesWritten are the corresponding byte totals.
	BytesRead    uint64
	BytesWritten uint64
	// Durability counters; all zero for a memory-backed file.
	//
	// Commits counts successful Commit calls; LoggedPages the page
	// post-images those commits logged; WALBytes the bytes appended to the
	// write-ahead log, and the WALBytes* fields its entries' share by class
	// (the rest is record headers and checksums); Checkpoints the
	// checkpoints that wrote the held pages back; Fsyncs the fsync calls
	// issued (WAL and data file); Recoveries how many Opens had to replay
	// WAL records; TornPages how many corrupt or half-written structures
	// (torn WAL tail, bad header) recovery detected and discarded.
	Commits     uint64
	LoggedPages uint64
	WALBytes    uint64
	Checkpoints uint64
	Fsyncs      uint64
	Recoveries  uint64
	TornPages   uint64
	// The logged bytes of a commit's entries by class: a page allocated in
	// its window to the page the allocation asked for (a copy-on-write copy
	// back on its node's previous page); a page allocated in its window from
	// the free list otherwise (a copy that missed its page, or an allocation
	// that named none); a committed page rewritten in place; a page at or
	// past the committed page count, cut against zeros.  A freed page logs
	// nothing.
	WALBytesPreferred uint64
	WALBytesElsewhere uint64
	WALBytesInPlace   uint64
	WALBytesPastEnd   uint64
	// HeldPages, WALPending and ReservedPages are gauges, not counters: the
	// committed pages waiting for the next checkpoint to write them back (or
	// skip them, once freed), the WAL bytes appended since the last
	// checkpoint, and the pages reserved now (File.Reserve).
	HeldPages     uint64
	WALPending    uint64
	ReservedPages uint64
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
	// one may be taken, otherwise a freshly appended one.  prefer names the
	// page the caller would like back, InvalidPageID for none.  The rule
	// (pickFree) is:
	//   - prefer is free: prefer itself;
	//   - prefer was given but is not free: the oldest free page that is not
	//     reserved, else a new page;
	//   - no preference: the most recently freed page that is not reserved,
	//     else the most recently freed reserved page, else a new page.
	// Allocating drops the reservation of prefer, whose node has moved on,
	// and of the page handed out.
	Allocate(prefer PageID) (PageID, error)
	// AllocateN allocates n consecutive pages and returns the ID of the
	// first.  It is used by the blob store to reserve space for large
	// immutable objects (the long inverted lists) in one call.  Like
	// Allocate it prefers recycling: a contiguous run of freed pages (the
	// shape a dropped index's blobs leave behind) is reused before the file
	// grows, a run without a reserved page before one with.
	AllocateN(n int) (PageID, error)
	// Reserve marks page id as the predecessor of a copy-on-write copy: the
	// page the copied node held one version earlier, which the node's next
	// copy will ask Allocate for.  While it is free, only an allocation that
	// asks for it, or one without preference that finds no unreserved free
	// page, takes it, so copies stop taking each other's pages.  Release
	// drops the reservation of a node that ends without a copy.  Reservations
	// are a hint kept in memory: never logged or persisted, and a reopened
	// file has none.
	Reserve(id PageID)
	Release(id PageID)
	// Free returns an allocated page to the free list for a later Allocate
	// to reuse.  The file never shrinks, but a workload that frees as it
	// allocates (delete/reinsert churn over B+-trees) stays bounded instead
	// of growing without limit.  Freeing an unallocated or already-free page
	// is an error.  The free list is kept in memory only: a durable file
	// logs nothing for a free and reopens with no free page.
	Free(id PageID) error
	// Reclaim replaces the free list with every page below NumPages that
	// live does not list: the caller names the pages its roots reach, once,
	// after opening a file, and the rest — freed before a close, or retired
	// and never freed before a crash — become free.  A page live lists out
	// of range or twice fails with ErrCorrupt and leaves the list alone.
	Reclaim(live []PageID) error
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
	reads         atomic.Uint64
	writes        atomic.Uint64
	allocs        atomic.Uint64
	frees         atomic.Uint64
	reuses        atomic.Uint64
	outcomes      [allocOutcomes]atomic.Uint64
	bytesRead     atomic.Uint64
	bytesWritten  atomic.Uint64
	commits       atomic.Uint64
	loggedPages   atomic.Uint64
	walBytes      atomic.Uint64
	walClass      [walClasses]atomic.Uint64
	checkpoints   atomic.Uint64
	fsyncs        atomic.Uint64
	recoveries    atomic.Uint64
	tornPages     atomic.Uint64
	heldPages     atomic.Uint64
	walPending    atomic.Uint64
	reservedPages atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:             c.reads.Load(),
		Writes:            c.writes.Load(),
		Allocs:            c.allocs.Load(),
		Frees:             c.frees.Load(),
		Reuses:            c.reuses.Load(),
		PreferredReuses:   c.outcomes[allocPreferred].Load(),
		PreferMisses:      c.outcomes[allocMissed].Load(),
		PreferGrows:       c.outcomes[allocGrown].Load(),
		Unpreferred:       c.outcomes[allocUnpreferred].Load() + c.outcomes[allocReserved].Load(),
		ReservedTaken:     c.outcomes[allocReserved].Load(),
		BytesRead:         c.bytesRead.Load(),
		BytesWritten:      c.bytesWritten.Load(),
		Commits:           c.commits.Load(),
		LoggedPages:       c.loggedPages.Load(),
		WALBytes:          c.walBytes.Load(),
		Checkpoints:       c.checkpoints.Load(),
		Fsyncs:            c.fsyncs.Load(),
		Recoveries:        c.recoveries.Load(),
		TornPages:         c.tornPages.Load(),
		WALBytesPreferred: c.walClass[walPreferred].Load(),
		WALBytesElsewhere: c.walClass[walElsewhere].Load(),
		WALBytesInPlace:   c.walClass[walInPlace].Load(),
		WALBytesPastEnd:   c.walClass[walPastEnd].Load(),
		HeldPages:         c.heldPages.Load(),
		WALPending:        c.walPending.Load(),
		ReservedPages:     c.reservedPages.Load(),
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
	for i := range c.walClass {
		c.walClass[i].Store(0)
	}
	c.checkpoints.Store(0)
	c.fsyncs.Store(0)
}

// allocOutcome is the rule of pickFree or findFreeRun that placed a page.
type allocOutcome int

const (
	allocPreferred   allocOutcome = iota // prefer was free: that page
	allocMissed                          // prefer was not: the oldest unreserved free page
	allocGrown                           // prefer was not, nor any unreserved page: a new page
	allocUnpreferred                     // no preference: an unreserved free page, or a new page
	allocReserved                        // no preference, every free page reserved: one of them
	allocOutcomes
)

// freeStack is the free list both backings keep: the stack of recycled page
// IDs, top last (B+-tree delete hygiene and drained epochs return pages
// here), freeSet to refuse double frees, which would hand one page to two
// structures, and the reserved pages (File.Reserve), free or still live.
// The caller holds the backing's lock.
type freeStack struct {
	free     []PageID
	freeSet  map[PageID]struct{}
	reserved map[PageID]struct{}
}

// pick chooses the page Allocate(prefer) takes: a slot of the stack, or -1
// for a new page.  It drops the reservations the allocation ends (prefer's
// and the chosen page's) and publishes the gauge.
func (s *freeStack) pick(prefer PageID, c *counters) (int, allocOutcome) {
	i, how := pickFree(s.free, s.freeSet, s.reserved, prefer)
	if prefer != InvalidPageID {
		delete(s.reserved, prefer)
	}
	if i >= 0 {
		delete(s.reserved, s.free[i])
	}
	c.outcomes[how].Add(1)
	c.reservedPages.Store(uint64(len(s.reserved)))
	return i, how
}

// pickRun finds the run AllocateN(n) takes — one without a reserved page
// if there is one — as findFreeRun reports it, and drops the reservations
// of its pages.
func (s *freeStack) pickRun(n int, c *counters) (int, PageID, bool) {
	i, first, ok := findFreeRun(s.free, s.reserved, n)
	if !ok {
		i, first, ok = findFreeRun(s.free, nil, n)
	}
	taken := 0
	if ok {
		for k := 0; k < n; k++ {
			if _, r := s.reserved[s.free[i+k]]; r {
				delete(s.reserved, s.free[i+k])
				taken++
			}
		}
	}
	c.outcomes[allocUnpreferred].Add(uint64(n - taken))
	c.outcomes[allocReserved].Add(uint64(taken))
	c.reservedPages.Store(uint64(len(s.reserved)))
	return i, first, ok
}

// push puts a freed page on top of the stack, refusing a double free.
func (s *freeStack) push(id PageID) error {
	if _, dup := s.freeSet[id]; dup {
		return fmt.Errorf("pagefile: double free of page %d", id)
	}
	if s.freeSet == nil {
		s.freeSet = map[PageID]struct{}{}
	}
	s.freeSet[id] = struct{}{}
	s.free = append(s.free, id)
	return nil
}

// reclaim makes the free stack every page below n that live does not list,
// highest first, so the lowest is on top.
func (s *freeStack) reclaim(live []PageID, n uint64) error {
	listed := make([]bool, n)
	for _, id := range live {
		if uint64(id) >= n {
			return fmt.Errorf("%w: live page %d of %d", ErrCorrupt, id, n)
		}
		if listed[id] {
			return fmt.Errorf("%w: live page %d listed twice", ErrCorrupt, id)
		}
		listed[id] = true
	}
	s.free = s.free[:0]
	s.freeSet = map[PageID]struct{}{}
	for id := PageID(n); id > 0; id-- {
		if !listed[id-1] {
			s.free = append(s.free, id-1)
			s.freeSet[id-1] = struct{}{}
		}
	}
	return nil
}

// remove deletes the n adjacent slots free[i:i+n].
func (s *freeStack) remove(i, n int) {
	for k := 0; k < n; k++ {
		delete(s.freeSet, s.free[i+k])
	}
	s.free = slices.Delete(s.free, i, i+n)
}

func (s *freeStack) reserve(id PageID, c *counters) {
	if s.reserved == nil {
		s.reserved = map[PageID]struct{}{}
	}
	s.reserved[id] = struct{}{}
	c.reservedPages.Store(uint64(len(s.reserved)))
}

func (s *freeStack) release(id PageID, c *counters) {
	delete(s.reserved, id)
	c.reservedPages.Store(uint64(len(s.reserved)))
}

// memFile is the in-memory backing: a simulated disk with I/O counters, used
// by tests and the in-memory benchmarks.
type memFile struct {
	pageSize int

	mu   sync.RWMutex
	mem  [][]byte // page images
	slab []byte   // allocation arena pages are carved from
	meta []byte

	freeStack
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
	if i, _ := f.pick(prefer, &f.counters); i >= 0 {
		id := f.free[i]
		f.remove(i, 1)
		f.reuses.Add(1)
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
	if err := f.push(id); err != nil {
		return err
	}
	f.frees.Add(1)
	return nil
}

func (f *memFile) Reclaim(live []PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reclaim(live, uint64(len(f.mem)))
}

func (f *memFile) FreePages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.free)
}

func (f *memFile) Reserve(id PageID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reserve(id, &f.counters)
}

func (f *memFile) Release(id PageID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.release(id, &f.counters)
}

func (f *memFile) AllocateN(n int) (PageID, error) {
	if n <= 0 {
		return InvalidPageID, fmt.Errorf("pagefile: AllocateN(%d): n must be positive", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.allocs.Add(uint64(n))
	if i, first, ok := f.pickRun(n, &f.counters); ok {
		f.remove(i, n)
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

// pickFree returns the slot of the free stack that Allocate(prefer) takes,
// -1 for a new page, and the rule that chose it:
//
//   - prefer is free: its own slot, searched from the top, where recently
//     freed pages sit.
//   - prefer was given but is not free: the oldest free page that is not
//     reserved, the bottom-most.  A reserved page is another node's
//     predecessor, which that node's next copy will ask for: taking it would
//     send that copy elsewhere too, and the misses would cascade.  With
//     every free page reserved the file grows instead; each live copied
//     node reserves at most one page, which bounds what that costs.
//   - no preference: the most recently freed page that is not reserved.  A
//     split or a blob has no older version anywhere, so it takes a reserved
//     page before it grows the file.
func pickFree(free []PageID, freeSet, reserved map[PageID]struct{}, prefer PageID) (int, allocOutcome) {
	if prefer == InvalidPageID {
		for i := len(free) - 1; i >= 0; i-- {
			if _, r := reserved[free[i]]; !r {
				return i, allocUnpreferred
			}
		}
		if len(free) == 0 {
			return -1, allocUnpreferred
		}
		return len(free) - 1, allocReserved
	}
	if _, ok := freeSet[prefer]; ok {
		for i := len(free) - 1; i >= 0; i-- {
			if free[i] == prefer {
				return i, allocPreferred
			}
		}
	}
	for i, id := range free {
		if _, r := reserved[id]; !r {
			return i, allocMissed
		}
	}
	return -1, allocGrown
}

// findFreeRun scans a free stack for n pages, none of them in skip, whose
// IDs are consecutive and that occupy adjacent stack slots.  Requiring slot
// adjacency (not just ID adjacency) lets the caller remove the run by
// splicing the stack at a single point.  Pages freed in ID order, the shape
// a dropped index's release leaves behind, and the descending stack Reclaim
// builds, satisfy both conditions.  Returns the segment's lowest stack index
// and the run's lowest page ID.
func findFreeRun(free []PageID, skip map[PageID]struct{}, n int) (int, PageID, bool) {
	if n <= 0 || len(free) < n {
		return 0, InvalidPageID, false
	}
	if n == 1 {
		// Any free page qualifies; take the topmost like Allocate.
		for i := len(free) - 1; i >= 0; i-- {
			if _, s := skip[free[i]]; !s {
				return i, free[i], true
			}
		}
		return 0, InvalidPageID, false
	}
	ascLen, descLen := 0, 0
	for i, id := range free {
		if _, s := skip[id]; s {
			ascLen, descLen = 0, 0
			continue
		}
		if ascLen > 0 && id == free[i-1]+1 {
			ascLen++
		} else {
			ascLen = 1
		}
		if descLen > 0 && id+1 == free[i-1] {
			descLen++
		} else {
			descLen = 1
		}
		if ascLen >= n {
			return i - n + 1, free[i-n+1], true
		}
		if descLen >= n {
			return i - n + 1, id, true
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
