package core

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svrdb/internal/relation"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/workload"
)

// trackedFile mirrors, page by page, the free list of the file it wraps,
// which the File interface only counts.
type trackedFile struct {
	pagefile.File
	mu   sync.Mutex
	free map[pagefile.PageID]bool
}

func (f *trackedFile) Allocate(prefer pagefile.PageID) (pagefile.PageID, error) {
	id, err := f.File.Allocate(prefer)
	if err == nil {
		f.mu.Lock()
		delete(f.free, id)
		f.mu.Unlock()
	}
	return id, err
}

func (f *trackedFile) AllocateN(n int) (pagefile.PageID, error) {
	first, err := f.File.AllocateN(n)
	if err == nil {
		f.mu.Lock()
		for k := 0; k < n; k++ {
			delete(f.free, first+pagefile.PageID(k))
		}
		f.mu.Unlock()
	}
	return first, err
}

func (f *trackedFile) Free(id pagefile.PageID) error {
	err := f.File.Free(id)
	if err == nil {
		f.mu.Lock()
		f.free[id] = true
		f.mu.Unlock()
	}
	return err
}

func (f *trackedFile) Reclaim(live []pagefile.PageID) error {
	err := f.File.Reclaim(live)
	if err == nil {
		f.mu.Lock()
		f.free = map[pagefile.PageID]bool{}
		for id := pagefile.PageID(0); uint64(id) < f.NumPages(); id++ {
			f.free[id] = true
		}
		for _, id := range live {
			delete(f.free, id)
		}
		f.mu.Unlock()
	}
	return err
}

// openTracked opens the durable engine at path, as Open does, over a
// trackedFile.
func openTracked(path string, opts OpenOptions) (*Engine, *trackedFile, error) {
	var fileOpts []pagefile.Option
	if opts.PageSize > 0 {
		fileOpts = append(fileOpts, pagefile.WithPageSize(opts.PageSize))
	}
	file, err := pagefile.Open(path, fileOpts...)
	if err != nil {
		return nil, nil, err
	}
	tf := &trackedFile{File: file, free: map[pagefile.PageID]bool{}}
	e, err := openFromFile(tf, opts)
	if err != nil {
		file.Close()
		return nil, nil, err
	}
	return e, tf, nil
}

// mustOpenTracked is openTracked failing the test on error.
func mustOpenTracked(t *testing.T, path string, opts OpenOptions) (*Engine, *trackedFile) {
	t.Helper()
	e, tf, err := openTracked(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, tf
}

// retainedPages counts the pages every index's epochs hold retired.
func retainedPages(e *Engine) int {
	n := 0
	for _, ti := range e.textIndexes() {
		n += ti.Stats().RetainedPages
	}
	return n
}

// checkPageOwnership checks that the pages the catalog reaches and the free
// pages are disjoint and, with the pages retired for a reader, cover
// [0, NumPages): no page is both used and free, and none is lost.
func checkPageOwnership(t *testing.T, e *Engine, tf *trackedFile) {
	t.Helper()
	live, err := e.livePages()
	if err != nil {
		t.Fatalf("list the catalog's pages: %v", err)
	}
	n := tf.NumPages()
	seen := make(map[pagefile.PageID]bool, len(live))
	tf.mu.Lock()
	defer tf.mu.Unlock()
	for _, id := range live {
		switch {
		case uint64(id) >= n:
			t.Fatalf("the catalog reaches page %d of %d", id, n)
		case seen[id]:
			t.Fatalf("the catalog reaches page %d twice", id)
		case tf.free[id]:
			t.Fatalf("page %d is reachable and free", id)
		}
		seen[id] = true
	}
	if len(tf.free) != tf.FreePages() {
		t.Fatalf("tracked %d free pages, the file has %d", len(tf.free), tf.FreePages())
	}
	if got := uint64(len(live) + len(tf.free) + retainedPages(e)); got != n {
		t.Fatalf("%d reachable, %d free and %d retained pages of %d: %d pages are lost or counted twice",
			len(live), len(tf.free), retainedPages(e), n, int64(n)-int64(got))
	}
}

// stallingFile parks the first Read of one of pages after arm until resume
// is closed: a search that faults such a page in holds its epoch meanwhile.
type stallingFile struct {
	pagefile.File
	pages   map[pagefile.PageID]bool
	armed   atomic.Bool
	stalled chan struct{}
	resume  chan struct{}
}

func (f *stallingFile) Read(id pagefile.PageID, dst []byte) error {
	if f.pages[id] && f.armed.CompareAndSwap(true, false) {
		close(f.stalled)
		<-f.resume
	}
	return f.File.Read(id, dst)
}

// TestRetiredPagesFreeAfterCrash: a score batch commits while a search
// holds the epoch the batch's superseded pages were retired into, and the
// process dies before the reader leaves.  Those pages are on no tree the
// committed catalog reaches and were never freed; the reopen must free
// them with the rest.
func TestRetiredPagesFreeAfterCrash(t *testing.T) {
	const movies, updates = 600, 197
	dir := t.TempDir()
	path := filepath.Join(dir, "leak.svrdb")
	opts := durableOpts()
	opts.PageSize = 1024
	e, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	params := workload.DefaultArchiveParams()
	params.NumMovies, params.WordsPerDesc = movies, 8
	if _, err := workload.BuildArchiveDB(e.DB(), params); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTextIndex("idx", "Movies", "desc", IndexOptions{Method: MethodChunk, SpecName: "archive"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	file, err := pagefile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sf := &stallingFile{File: file, pages: map[pagefile.PageID]bool{}, stalled: make(chan struct{}), resume: make(chan struct{})}
	e, err = openFromFile(sf, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ti, err := e.TextIndex("idx")
	if err != nil {
		t.Fatal(err)
	}
	// Stall on a long-list page: no score batch reads one.
	for _, ref := range ti.method.Dictionary().LongRefs {
		for i := uint64(0); i < ref.PageSpan(file.PageSize()); i++ {
			sf.pages[ref.FirstPage+pagefile.PageID(i)] = true
		}
	}
	sf.armed.Store(true)
	searched := make(chan error, 1)
	go func() {
		_, err := ti.Search(SearchRequest{Query: "golden gate", K: 10})
		searched <- err
	}()
	select {
	case <-sf.stalled:
	case err := <-searched:
		t.Fatalf("the search read no long-list page (err %v)", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the search never reached a long-list page")
	}

	stats, err := e.DB().Table("Statistics")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyBatch(func() error {
		for i := 0; i < updates; i++ {
			mID := int64(i*7%movies + 1)
			row, err := stats.Get(mID)
			if err != nil {
				return err
			}
			if err := stats.Update(mID, map[string]relation.Value{"nVisit": relation.Int(row[2].I + 1000)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	retained := retainedPages(e)
	if retained == 0 {
		t.Fatal("the pinned reader retained no page: the test proves nothing")
	}
	free := file.FreePages()

	// Die now: the batch is durable in the WAL, the reader still pinned.
	crashed := filepath.Join(dir, "crashed.svrdb")
	cloneEngineFile(t, path, crashed)
	close(sf.resume)
	if err := <-searched; err != nil {
		t.Fatal(err)
	}

	re, tf := mustOpenTracked(t, crashed, durableOpts())
	defer re.Close()
	if got := tf.FreePages(); got != free+retained {
		t.Errorf("after the crash %d pages are free, want the %d free before it and the %d the reader retained", got, free, retained)
	}
	checkPageOwnership(t, re, tf)
}

// TestFreeListEqualsReachability: over the archive database — string
// columns, secondary indexes — with all six index methods, a batch, a merge
// and a drop, the free list the engine kept page by page is exactly what the
// catalog does not reach, and a clean Close and reopen, which rebuilds it
// from the catalog, frees the same pages and leaves the pool cold.
func TestFreeListEqualsReachability(t *testing.T) {
	const movies = 120
	path := filepath.Join(t.TempDir(), "archive.svrdb")
	opts := durableOpts()
	opts.PageSize = 1024
	e, tf := mustOpenTracked(t, path, opts)
	params := workload.DefaultArchiveParams()
	params.NumMovies, params.WordsPerDesc = movies, 8
	if _, err := workload.BuildArchiveDB(e.DB(), params); err != nil {
		t.Fatal(err)
	}
	createAllMethodIndexes(t, e)
	checkPageOwnership(t, e, tf)
	if err := e.ApplyBatch(applyArchiveMutations(t, e.DB(), movies, 60)); err != nil {
		t.Fatal(err)
	}
	checkPageOwnership(t, e, tf)
	merged, err := e.TextIndex("idx-" + string(MethodChunkTermScore))
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.MergeShortLists(); err != nil {
		t.Fatal(err)
	}
	checkPageOwnership(t, e, tf)
	if err := e.DropTextIndex("idx-" + string(MethodChunk)); err != nil {
		t.Fatal(err)
	}
	checkPageOwnership(t, e, tf)
	if tf.FreePages() == 0 {
		t.Fatal("a merge and a drop freed no page: the test proves nothing")
	}
	free := tf.FreePages() + retainedPages(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, rtf := mustOpenTracked(t, path, durableOpts())
	defer re.Close()
	// The walk that rebuilt the free list read through the pool, which an
	// opened engine must still present cold.
	if n, st := re.Pool().ResidentPages(), re.Pool().Stats(); n != 0 || st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Flushes != 0 {
		t.Errorf("after Open the pool holds %d pages, counters %+v; want none and zero", n, st)
	}
	if got := rtf.FreePages(); got != free {
		t.Errorf("the reopened file has %d free pages, the closed engine %d", got, free)
	}
	checkPageOwnership(t, re, rtf)
}
