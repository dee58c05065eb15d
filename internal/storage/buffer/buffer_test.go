package buffer

import (
	"fmt"
	"sync"
	"testing"

	"svrdb/internal/storage/pagefile"
)

func newPool(t testing.TB, pageSize, capacity int) (*Pool, pagefile.File) {
	t.Helper()
	f := pagefile.MustNewMem(pageSize)
	p, err := New(f, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p, f
}

func TestNewPageAndGet(t *testing.T) {
	p, _ := newPool(t, 128, 4)
	fr, err := p.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0xAB
	fr.MarkDirty()
	id := fr.ID()
	fr.Release()

	fr2, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Data()[0] != 0xAB {
		t.Error("page contents lost between NewPage and Get")
	}
	fr2.Release()
}

func TestCapacityValidation(t *testing.T) {
	f := pagefile.MustNewMem(128)
	if _, err := New(f, 0); err == nil {
		t.Error("New with capacity 0 succeeded, want error")
	}
}

func TestHitMissCounting(t *testing.T) {
	p, _ := newPool(t, 128, 4)
	fr, _ := p.NewPage(pagefile.InvalidPageID)
	id := fr.ID()
	fr.Release()

	for i := 0; i < 3; i++ {
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
	}
	s := p.Stats()
	if s.Hits != 3 {
		t.Errorf("Hits = %d, want 3", s.Hits)
	}
	p.ResetStats()
	if p.Stats().Hits != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestEvictionWritesDirtyPages(t *testing.T) {
	p, f := newPool(t, 128, 2)
	// Create three pages through a pool that can hold only two.
	var ids []pagefile.PageID
	for i := 0; i < 3; i++ {
		fr, err := p.NewPage(pagefile.InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i + 1)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Release()
	}
	if p.ResidentPages() > 2 {
		t.Errorf("ResidentPages = %d, exceeds capacity 2", p.ResidentPages())
	}
	if p.Stats().Evictions == 0 {
		t.Error("expected at least one eviction")
	}
	// The evicted page must have been flushed to the file.
	buf := make([]byte, 128)
	if err := f.Read(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Errorf("evicted dirty page not flushed: first byte %d, want 1", buf[0])
	}
	// And it must read back correctly through the pool.
	fr, err := p.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[0] != 1 {
		t.Errorf("re-fetched page contents = %d, want 1", fr.Data()[0])
	}
	fr.Release()
}

func TestAllPinnedError(t *testing.T) {
	p, _ := newPool(t, 128, 2)
	fr1, err := p.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	fr2, err := p.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewPage(pagefile.InvalidPageID); err == nil {
		t.Error("NewPage with all frames pinned succeeded, want ErrPoolFull")
	}
	fr1.Release()
	fr2.Release()
	if _, err := p.NewPage(pagefile.InvalidPageID); err != nil {
		t.Errorf("NewPage after releasing pins: %v", err)
	}
}

func TestFlushAllAndEvictAll(t *testing.T) {
	p, f := newPool(t, 128, 8)
	var ids []pagefile.PageID
	for i := 0; i < 5; i++ {
		fr, _ := p.NewPage(pagefile.InvalidPageID)
		fr.Data()[0] = byte(10 + i)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Release()
	}
	if err := p.FlushOrdered(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for i, id := range ids {
		if err := f.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(10+i) {
			t.Errorf("page %d not flushed", id)
		}
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if p.ResidentPages() != 0 {
		t.Errorf("ResidentPages after EvictAll = %d, want 0", p.ResidentPages())
	}
	// Pages still readable afterwards (cold cache).
	before := p.Stats().Misses
	fr, err := p.Get(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	fr.Release()
	if p.Stats().Misses != before+1 {
		t.Error("read after EvictAll should be a miss")
	}
}

func TestEvictAllKeepsPinnedPages(t *testing.T) {
	p, _ := newPool(t, 128, 4)
	fr, _ := p.NewPage(pagefile.InvalidPageID)
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if p.ResidentPages() != 1 {
		t.Errorf("pinned page was evicted; ResidentPages = %d", p.ResidentPages())
	}
	if p.PinnedPages() != 1 {
		t.Errorf("PinnedPages = %d, want 1", p.PinnedPages())
	}
	fr.Release()
	if p.PinnedPages() != 0 {
		t.Errorf("PinnedPages after release = %d, want 0", p.PinnedPages())
	}
}

func TestLRUOrderPreferred(t *testing.T) {
	p, _ := newPool(t, 128, 3)
	var ids []pagefile.PageID
	for i := 0; i < 3; i++ {
		fr, _ := p.NewPage(pagefile.InvalidPageID)
		ids = append(ids, fr.ID())
		fr.Release()
	}
	// Touch page 0 so that page 1 becomes the LRU victim.
	fr, _ := p.Get(ids[0])
	fr.Release()
	frNew, err := p.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	frNew.Release()
	// Page 0 should still be resident (a hit); page 1 should be gone (a miss).
	base := p.Stats()
	fr, _ = p.Get(ids[0])
	fr.Release()
	if p.Stats().Hits != base.Hits+1 {
		t.Error("recently used page was evicted before the LRU page")
	}
	fr, _ = p.Get(ids[1])
	fr.Release()
	if p.Stats().Misses != base.Misses+1 {
		t.Error("LRU page was unexpectedly still resident")
	}
}

func TestOverReleaseDetected(t *testing.T) {
	p, _ := newPool(t, 128, 4)
	fr, err := p.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPins(); err == nil {
		t.Error("CheckPins with a pinned frame succeeded, want error")
	}
	fr.Release()
	if err := p.CheckPins(); err != nil {
		t.Errorf("CheckPins after balanced release: %v", err)
	}
	// The second release is unbalanced and must be counted, not swallowed.
	fr.Release()
	if got := p.Stats().OverReleases; got != 1 {
		t.Errorf("OverReleases = %d, want 1", got)
	}
	if err := p.CheckPins(); err == nil {
		t.Error("CheckPins after over-release succeeded, want error")
	}
	// ResetStats keeps the over-release count: it records a caller bug.
	p.ResetStats()
	if got := p.Stats().OverReleases; got != 1 {
		t.Errorf("OverReleases after ResetStats = %d, want 1", got)
	}
}

func TestConcurrentGetSamePage(t *testing.T) {
	p, _ := newPool(t, 128, 8)
	fr, err := p.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0x5A
	fr.MarkDirty()
	id := fr.ID()
	fr.Release()
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}

	// Hammer the same cold page from many goroutines: every Get must wait on
	// the loading latch and observe fully loaded contents.
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fr, err := p.Get(id)
			if err != nil {
				errs <- err
				return
			}
			if fr.Data()[0] != 0x5A {
				errs <- fmt.Errorf("got byte %#x, want 0x5a", fr.Data()[0])
			}
			fr.Release()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.CheckPins(); err != nil {
		t.Errorf("CheckPins after concurrent gets: %v", err)
	}
}

func TestEvictedBuffersRecycled(t *testing.T) {
	p, _ := newPool(t, 128, 2)
	// Cycle many pages through a 2-frame pool; the free list must keep the
	// pool from allocating a fresh buffer per miss, and recycled buffers must
	// never leak stale bytes into fresh pages.
	var ids []pagefile.PageID
	for i := 0; i < 6; i++ {
		fr, err := p.NewPage(pagefile.InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		for j := range fr.Data() {
			fr.Data()[j] = 0xEE
		}
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Release()
	}
	fr, err := p.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fr.Data() {
		if b != 0 {
			t.Fatal("NewPage returned a recycled buffer with stale bytes")
		}
	}
	fr.Release()
	// Re-reading an evicted page must still return its flushed contents.
	fr2, err := p.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Data()[0] != 0xEE {
		t.Errorf("evicted page byte = %#x, want 0xee", fr2.Data()[0])
	}
	fr2.Release()
}

func TestWriteThrough(t *testing.T) {
	p, f := newPool(t, 128, 4)
	id, err := f.Allocate(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 128)
	page[0] = 0x5A
	if err := p.WriteThrough(id, page); err != nil {
		t.Fatal(err)
	}
	// The page must not have been pulled into the pool...
	if p.ResidentPages() != 0 {
		t.Errorf("WriteThrough made %d pages resident, want 0", p.ResidentPages())
	}
	// ...but a later Get must read the written contents.
	fr, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[0] != 0x5A {
		t.Error("WriteThrough contents not visible to Get")
	}
	fr.Release()

	// Writing through to a resident page keeps the frame coherent and clean.
	page[0] = 0x77
	if err := p.WriteThrough(id, page); err != nil {
		t.Fatal(err)
	}
	fr, err = p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[0] != 0x77 {
		t.Error("WriteThrough did not update the resident frame")
	}
	fr.Release()
	if err := p.CheckPins(); err != nil {
		t.Error(err)
	}
}

func TestFlushOrdered(t *testing.T) {
	p, f := newPool(t, 128, 16)
	// Dirty several pages in a scrambled creation order.
	var ids []pagefile.PageID
	for i := 0; i < 8; i++ {
		fr, err := p.NewPage(pagefile.InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i + 1)
		fr.MarkDirty()
		ids = append(ids, fr.ID())
		fr.Release()
	}
	before := f.Stats().Writes
	if err := p.FlushOrdered(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Writes - before; got != 8 {
		t.Errorf("FlushOrdered wrote %d pages, want 8", got)
	}
	// A second flush writes nothing: everything is clean.
	before = f.Stats().Writes
	if err := p.FlushOrdered(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Writes - before; got != 0 {
		t.Errorf("second FlushOrdered wrote %d pages, want 0", got)
	}
	// The flushed contents are durable in the file.
	buf := make([]byte, 128)
	for i, id := range ids {
		if err := f.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Errorf("page %d contents = %d, want %d", id, buf[0], i+1)
		}
	}
}

func TestFramePatch(t *testing.T) {
	pool, _ := newPool(t, 256, 4)
	fr, err := pool.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	id := fr.ID()
	copy(fr.Data(), []byte("aaaaaaaa"))
	fr.MarkDirty()
	fr.Patch(2, []byte("XY"))
	fr.Release()
	// Evict so the patched image must round-trip through the file.
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	fr, err = pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(fr.Data()[:8]); got != "aaXYaaaa" {
		t.Errorf("patched page = %q, want %q", got, "aaXYaaaa")
	}
	fr.Release()
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

func TestFramePatchBoundsPanic(t *testing.T) {
	pool, _ := newPool(t, 256, 4)
	fr, err := pool.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds Patch did not panic")
		}
	}()
	fr.Patch(255, []byte("too long"))
}

func TestFreePageDropsFrameWithoutFlush(t *testing.T) {
	pool, file := newPool(t, 256, 4)
	fr, err := pool.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	id := fr.ID()
	copy(fr.Data(), []byte("doomed"))
	fr.MarkDirty()
	fr.Release()
	flushesBefore := pool.Stats().Flushes
	if err := pool.FreePage(id); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Flushes != flushesBefore {
		t.Error("FreePage flushed a dead page")
	}
	if pool.ResidentPages() != 0 {
		t.Errorf("ResidentPages = %d after FreePage, want 0", pool.ResidentPages())
	}
	if file.FreePages() != 1 {
		t.Errorf("file FreePages = %d, want 1", file.FreePages())
	}
	// The recycled page comes back zeroed through NewPage.
	fr2, err := pool.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.ID() != id {
		t.Errorf("NewPage after FreePage = page %d, want recycled %d", fr2.ID(), id)
	}
	for _, b := range fr2.Data()[:8] {
		if b != 0 {
			t.Fatal("recycled page not zeroed")
		}
	}
	fr2.Release()
	if err := pool.CheckPins(); err != nil {
		t.Error(err)
	}
}

func TestFreePageRefusesPinned(t *testing.T) {
	pool, _ := newPool(t, 256, 4)
	fr, err := pool.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FreePage(fr.ID()); err == nil {
		t.Error("FreePage of a pinned page succeeded, want error")
	}
	fr.Release()
	if err := pool.FreePage(fr.ID()); err != nil {
		t.Errorf("FreePage after release: %v", err)
	}
}

// TestLayoutNoteLivesWithTheBytes: a reader's layout note survives pins and
// hits, and is gone once the page's bytes change in place (MarkDirty, Patch,
// WriteThrough over a resident frame) or the page comes back into a frame
// after eviction.
func TestLayoutNoteLivesWithTheBytes(t *testing.T) {
	p, _ := newPool(t, 64, 2)
	fr, err := p.NewPage(pagefile.InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	id := fr.ID()
	if fr.Layout() != 0 {
		t.Fatalf("a new page carries note %#x", fr.Layout())
	}
	fr.Release()
	get := func() *Frame {
		t.Helper()
		fr, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	for _, tc := range []struct {
		name  string
		write func(fr *Frame)
	}{
		{"MarkDirty", func(fr *Frame) { fr.MarkDirty() }},
		{"Patch", func(fr *Frame) { fr.Patch(3, []byte{7}) }},
		{"WriteThrough", func(*Frame) {
			if err := p.WriteThrough(id, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		fr := get()
		fr.SetLayout(42)
		fr.Release()
		fr = get()
		if fr.Layout() != 42 {
			t.Fatalf("%s: the note did not survive a hit: %#x", tc.name, fr.Layout())
		}
		tc.write(fr)
		if fr.Layout() != 0 {
			t.Errorf("%s left note %#x", tc.name, fr.Layout())
		}
		fr.Release()
	}

	fr = get()
	fr.SetLayout(42)
	fr.Release()
	for i := 0; i < 2; i++ { // two other pages evict it from a pool of two
		o, err := p.NewPage(pagefile.InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		o.Release()
	}
	misses := p.Stats().Misses
	fr = get()
	if p.Stats().Misses != misses+1 || fr.Layout() != 0 {
		t.Errorf("after eviction: miss %v, note %#x; want a miss and no note", p.Stats().Misses != misses, fr.Layout())
	}
	fr.Release()
}
