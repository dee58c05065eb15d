package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"svrdb/internal/storage/pagefile"
)

// Stats counts buffer pool activity since the last ResetStats.
type Stats struct {
	Hits      uint64 // page requests satisfied from the pool
	Misses    uint64 // page requests that had to read the underlying file
	Evictions uint64 // pages evicted to make room
	Flushes   uint64 // dirty pages written back
	// OverReleases counts Release calls without a matching Get.  A correct
	// caller never produces one; the counter (also checked by CheckPins)
	// exists so unbalanced pin accounting is detectable instead of silently
	// ignored.
	OverReleases uint64
}

// Frame is a pinned page held by the buffer pool.  Callers must Release a
// frame when finished with it; a released frame's Data must not be used
// again.
type Frame struct {
	pool *Pool
	id   pagefile.PageID
	data []byte
	elem *list.Element

	pins  int
	dirty bool

	// layout is a reader's note on the page's current bytes (see Layout).
	layout atomic.Uint64

	// ready is closed once the page contents are loaded (the frame's loading
	// latch); loadErr is set before ready is closed when the read failed.
	// Concurrent Gets of the same page wait on ready instead of serializing
	// the file read under the pool lock.
	ready   chan struct{}
	loadErr error
}

// ID returns the page ID the frame holds.
func (fr *Frame) ID() pagefile.PageID { return fr.id }

// Data returns the page contents.  The slice aliases the pool's copy of the
// page; mutations must be followed by MarkDirty so that they are written
// back on eviction or flush.
func (fr *Frame) Data() []byte { return fr.data }

// Layout returns the note a reader stored with SetLayout about the page's
// current bytes, or 0 when there is none.  The pool does not interpret it:
// the B+-tree keeps there the verdict of its fixed-width check on a leaf,
// so that a reader that finds the page again reuses the verdict instead of
// re-deriving it from the bytes.  A note lives as long as the bytes it was
// taken from: MarkDirty and Patch clear it, WriteThrough clears it when it
// overwrites a resident frame, and a frame that comes to hold another page
// (a miss, NewPage) starts without one.  Readers on other goroutines may
// store and load it concurrently; a reader must store only what the bytes
// it read under its pin determine.
func (fr *Frame) Layout() uint64 { return fr.layout.Load() }

// SetLayout stores a reader's note on the page's current bytes (see
// Layout).  v must not be 0.  The caller holds a pin.
func (fr *Frame) SetLayout(v uint64) { fr.layout.Store(v) }

// MarkDirty records that the frame's contents have been modified, which
// drops any note taken from the old bytes (see Layout).
func (fr *Frame) MarkDirty() {
	fr.layout.Store(0)
	fr.pool.mu.Lock()
	fr.dirty = true
	fr.pool.mu.Unlock()
}

// Patch overwrites len(src) bytes of the page at offset off and marks the
// frame dirty.  It is the mutate-in-place fast path for same-length value
// rewrites: the caller edits the resident page image directly instead of
// rebuilding and rewriting the whole page.  The caller must hold the pin for
// the duration of the call and off+len(src) must lie within the page.
func (fr *Frame) Patch(off int, src []byte) {
	if off < 0 || off+len(src) > len(fr.data) {
		panic(fmt.Sprintf("buffer: patch [%d,%d) outside page of %d bytes", off, off+len(src), len(fr.data)))
	}
	copy(fr.data[off:], src)
	fr.MarkDirty()
}

// Release unpins the frame.  It is an error (reported by the pool's
// CheckPins) to release a frame more times than it was pinned.
func (fr *Frame) Release() {
	fr.pool.release(fr)
}

// Pool is a fixed-capacity LRU buffer pool.  It is safe for concurrent use.
type Pool struct {
	file     pagefile.File
	capacity int

	mu     sync.Mutex
	frames map[pagefile.PageID]*Frame
	lru    *list.List // front = most recently used; holds unpinned and pinned frames

	// freeData recycles page buffers of evicted frames so a steady-state
	// miss does not allocate.
	freeData [][]byte

	// The activity counters are atomics so that Stats and the benchmark
	// harness can sample them while concurrent queries hammer the pool,
	// without taking p.mu and without torn reads on 32-bit platforms.
	hits         atomic.Uint64
	misses       atomic.Uint64
	evictions    atomic.Uint64
	flushes      atomic.Uint64
	overReleases atomic.Uint64
}

// maxFreeBuffers bounds the recycled page-buffer list.
const maxFreeBuffers = 16

// ErrPoolFull is returned when every frame in the pool is pinned and a new
// page must be brought in.
var ErrPoolFull = errors.New("buffer: all frames pinned")

// New creates a pool over file with space for capacity pages.  Capacity must
// be at least 1.
func New(file pagefile.File, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d must be at least 1", capacity)
	}
	return &Pool{
		file:     file,
		capacity: capacity,
		frames:   make(map[pagefile.PageID]*Frame, capacity),
		lru:      list.New(),
	}, nil
}

// MustNew is like New but panics on error.
func MustNew(file pagefile.File, capacity int) *Pool {
	p, err := New(file, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// File returns the underlying page file.
func (p *Pool) File() pagefile.File { return p.file }

// PageSize reports the page size of the underlying file.
func (p *Pool) PageSize() int { return p.file.PageSize() }

// Get pins the page with the given ID, reading it from the underlying file
// if it is not already resident.
func (p *Pool) Get(id pagefile.PageID) (*Frame, error) {
	p.mu.Lock()
	if fr, ok := p.frames[id]; ok {
		p.hits.Add(1)
		fr.pins++
		p.lru.MoveToFront(fr.elem)
		p.mu.Unlock()
		// Wait on the loading latch: another Get may still be reading the
		// page contents from the file.
		<-fr.ready
		if fr.loadErr != nil {
			p.release(fr)
			return nil, fr.loadErr
		}
		return fr, nil
	}
	p.misses.Add(1)
	fr, err := p.allocFrameLocked(id)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Unlock()

	// Read the page without holding the pool lock; the frame is already
	// visible and pinned, so concurrent requests for the same page park on
	// its ready latch while requests for other pages proceed.
	err = p.file.Read(id, fr.data)
	p.mu.Lock()
	fr.loadErr = err
	close(fr.ready)
	if err != nil {
		p.dropFrameLocked(fr)
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Unlock()
	return fr, nil
}

// NewPage allocates a fresh page in the underlying file and returns it
// pinned, zeroed and marked dirty.  prefer is the page the caller would like
// back, InvalidPageID for none (see pagefile.File.Allocate): a
// copy-on-write copy names the page its node held one version earlier,
// whose bytes the file's delta against that page's last image then mostly
// matches.  The node's previous copy reserved that page in the file
// (pagefile.File.Reserve, which the pool does not wrap), so that no other
// allocation took it while it was free.
func (p *Pool) NewPage(prefer pagefile.PageID) (*Frame, error) {
	id, err := p.file.Allocate(prefer)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, err := p.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	// Fresh pages start zeroed; a recycled buffer holds the evicted page's
	// bytes, so clear it.  The Get path overwrites via file.Read instead.
	clear(fr.data)
	fr.dirty = true
	close(fr.ready)
	return fr, nil
}

// allocFrameLocked creates a pinned frame for id with an open loading latch,
// evicting and recycling a page buffer if necessary.  The caller holds p.mu.
func (p *Pool) allocFrameLocked(id pagefile.PageID) (*Frame, error) {
	if len(p.frames) >= p.capacity {
		if err := p.evictOneLocked(); err != nil {
			return nil, err
		}
	}
	var data []byte
	if n := len(p.freeData); n > 0 {
		data = p.freeData[n-1]
		p.freeData = p.freeData[:n-1]
	} else {
		data = make([]byte, p.file.PageSize())
	}
	fr := &Frame{
		pool:  p,
		id:    id,
		data:  data,
		pins:  1,
		ready: make(chan struct{}),
	}
	fr.elem = p.lru.PushFront(fr)
	p.frames[id] = fr
	return fr, nil
}

// recycleBufferLocked returns a dropped frame's page buffer to the free
// list.  The caller holds p.mu.
func (p *Pool) recycleBufferLocked(data []byte) {
	if len(p.freeData) < maxFreeBuffers {
		p.freeData = append(p.freeData, data)
	}
}

// dropFrameLocked removes a frame that failed to initialize.
func (p *Pool) dropFrameLocked(fr *Frame) {
	p.lru.Remove(fr.elem)
	delete(p.frames, fr.id)
	p.recycleBufferLocked(fr.data)
	fr.data = nil
}

// evictOneLocked evicts the least recently used unpinned frame, flushing it
// if dirty.  The caller holds p.mu.
func (p *Pool) evictOneLocked() error {
	for e := p.lru.Back(); e != nil; e = e.Prev() {
		fr := e.Value.(*Frame)
		if fr.pins > 0 {
			continue
		}
		if fr.dirty {
			if err := p.file.Write(fr.id, fr.data); err != nil {
				return err
			}
			p.flushes.Add(1)
		}
		p.lru.Remove(e)
		delete(p.frames, fr.id)
		p.recycleBufferLocked(fr.data)
		fr.data = nil
		p.evictions.Add(1)
		return nil
	}
	return ErrPoolFull
}

func (p *Pool) release(fr *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr.pins > 0 {
		fr.pins--
	} else {
		p.overReleases.Add(1)
	}
}

// FlushError identifies the page whose writeback failed during a flush
// sweep.  The frame for PageID and every frame after it in the sweep order
// are still dirty: a flush that hits a FlushError can simply be retried.
type FlushError struct {
	PageID pagefile.PageID
	Err    error
}

func (e *FlushError) Error() string {
	return fmt.Sprintf("buffer: flush of page %d failed: %v", e.PageID, e.Err)
}

func (e *FlushError) Unwrap() error { return e.Err }

// FlushOrdered writes every dirty resident page back in ascending page-ID
// order — one sequential pass over the file.  Bulk writers call it after a
// batch so the dirty pages a batch produced go out as one ordered sweep
// instead of dribbling out in LRU eviction order.
//
// On failure it returns a *FlushError naming the page that could not be
// written; that frame and every later frame in the sweep stay dirty, so the
// sweep can be retried without losing updates.
func (p *Pool) FlushOrdered() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushOrderedLocked()
}

func (p *Pool) flushOrderedLocked() error {
	dirty := make([]*Frame, 0, len(p.frames))
	for _, fr := range p.frames {
		if fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].id < dirty[j].id })
	for _, fr := range dirty {
		if err := p.file.Write(fr.id, fr.data); err != nil {
			return &FlushError{PageID: fr.id, Err: err}
		}
		fr.dirty = false
		p.flushes.Add(1)
	}
	return nil
}

// WriteThrough writes a full page image directly to the underlying file
// without bringing the page into the pool, so bulk loads that write
// structures much larger than the pool do not evict the working set.  data
// must be at least PageSize bytes.  The caller must own the page: it is
// intended for freshly allocated pages that no reader has seen yet.  If the
// page happens to be resident its frame is updated in place and marked
// clean, so later reads stay coherent.
func (p *Pool) WriteThrough(id pagefile.PageID, data []byte) error {
	p.mu.Lock()
	if fr, ok := p.frames[id]; ok {
		copy(fr.data, data[:p.file.PageSize()])
		fr.layout.Store(0)
		fr.dirty = false
	}
	p.flushes.Add(1)
	p.mu.Unlock()
	return p.file.Write(id, data)
}

// FreePage drops any resident frame for id without writing it back and
// returns the page to the file's free list.  Callers use it to recycle pages
// of structures they are dismantling (emptied B+-tree nodes); the page's
// contents are dead, so flushing a dirty frame would be wasted I/O.  The
// page must be unpinned.
func (p *Pool) FreePage(id pagefile.PageID) error {
	p.mu.Lock()
	if fr, ok := p.frames[id]; ok {
		if fr.pins > 0 {
			p.mu.Unlock()
			return fmt.Errorf("buffer: free of page %d with %d pins", id, fr.pins)
		}
		p.lru.Remove(fr.elem)
		delete(p.frames, id)
		p.recycleBufferLocked(fr.data)
		fr.data = nil
	}
	p.mu.Unlock()
	return p.file.Free(id)
}

// EvictAll flushes and drops every unpinned page, producing a cold cache.
// Pinned pages are flushed but remain resident.  The benchmark harness calls
// this before timing each query, mirroring the cold-cache methodology in the
// paper's §5.2.
func (p *Pool) EvictAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var next *list.Element
	for e := p.lru.Front(); e != nil; e = next {
		next = e.Next()
		fr := e.Value.(*Frame)
		if fr.dirty {
			if err := p.file.Write(fr.id, fr.data); err != nil {
				return err
			}
			fr.dirty = false
			p.flushes.Add(1)
		}
		if fr.pins == 0 {
			p.lru.Remove(e)
			delete(p.frames, fr.id)
			p.evictions.Add(1)
		}
	}
	return nil
}

// PinnedPages reports the number of frames with a non-zero pin count.  Tests
// use it to verify that every Get is matched by a Release.
func (p *Pool) PinnedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, fr := range p.frames {
		if fr.pins > 0 {
			n++
		}
	}
	return n
}

// ResidentPages reports the number of pages currently cached.
func (p *Pool) ResidentPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// CheckPins reports pin-accounting violations: frames still pinned (a Get
// without a matching Release) and over-releases (a Release without a
// matching Get).  Tests call it after exercising a structure to assert that
// every pin was balanced.
func (p *Pool) CheckPins() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pinned := 0
	for _, fr := range p.frames {
		if fr.pins > 0 {
			pinned++
		}
	}
	if pinned > 0 || p.overReleases.Load() > 0 {
		return fmt.Errorf("buffer: pin accounting violated: %d frames still pinned, %d over-releases", pinned, p.overReleases.Load())
	}
	return nil
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Hits: p.hits.Load(), Misses: p.misses.Load(), Evictions: p.evictions.Load(), Flushes: p.flushes.Load(), OverReleases: p.overReleases.Load()}
}

// ResetStats zeroes the pool counters.  The over-release counter is
// deliberately not reset: it records a caller bug, not workload activity.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
	p.flushes.Store(0)
}
