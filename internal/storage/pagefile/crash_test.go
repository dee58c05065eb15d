package pagefile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fileImage is a full logical snapshot of a committed file: every page plus
// the application meta, and the pages free when it was taken.  Crash-point
// tests compare recovered files against these images byte for byte, except
// for a page free in either image: its bytes are dead, and a checkpoint
// leaves a held page it freed as the data file had it.
type fileImage struct {
	pages [][]byte
	meta  []byte
	free  map[PageID]bool
}

// freeSet returns the pages on f's free list.
func freeSet(f File) map[PageID]bool {
	var s *freeStack
	switch f := f.(type) {
	case *diskFile:
		f.mu.RLock()
		defer f.mu.RUnlock()
		s = &f.freeStack
	case *memFile:
		f.mu.RLock()
		defer f.mu.RUnlock()
		s = &f.freeStack
	}
	out := map[PageID]bool{}
	for _, id := range s.free {
		out[id] = true
	}
	return out
}

func snapshotFile(t testing.TB, f File) *fileImage {
	t.Helper()
	img := &fileImage{meta: f.Meta(), free: freeSet(f)}
	buf := make([]byte, f.PageSize())
	for id := uint64(0); id < f.NumPages(); id++ {
		if err := f.Read(PageID(id), buf); err != nil {
			t.Fatalf("snapshot read page %d: %v", id, err)
		}
		img.pages = append(img.pages, append([]byte(nil), buf...))
	}
	return img
}

func (img *fileImage) equal(other *fileImage) bool {
	if len(img.pages) != len(other.pages) || !bytes.Equal(img.meta, other.meta) {
		return false
	}
	for i := range img.pages {
		if img.free[PageID(i)] || other.free[PageID(i)] {
			continue
		}
		if !bytes.Equal(img.pages[i], other.pages[i]) {
			return false
		}
	}
	return true
}

// live lists the image's pages that are not free.
func (img *fileImage) live() []PageID {
	var ids []PageID
	for i := range img.pages {
		if !img.free[PageID(i)] {
			ids = append(ids, PageID(i))
		}
	}
	return ids
}

func copyFile(t testing.TB, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if errors.Is(err, os.ErrNotExist) {
		os.Remove(dst)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
}

// cloneDB copies a data file and its WAL sidecar into a fresh working path.
func cloneDB(t testing.TB, src, dst string) {
	t.Helper()
	copyFile(t, src, dst)
	copyFile(t, WALPath(src), WALPath(dst))
}

// commitScenario is the mutation batch whose crash behaviour the matrix
// explores: rewrite one committed page, free another and take it back for
// new contents, and grow the file by one — in-place writeback, reuse of a
// page freed in the same window, and growth in a single commit.
func commitScenario(f File) error {
	page := make([]byte, f.PageSize())
	for i := range page {
		page[i] = 0xC4
	}
	if err := f.Write(1, page); err != nil {
		return err
	}
	if err := f.Free(2); err != nil {
		return err
	}
	for _, fill := range []byte{0xD5, 0xE6} { // page 2 back, then page 4
		id, err := f.Allocate(InvalidPageID)
		if err != nil {
			return err
		}
		for i := range page {
			page[i] = fill
		}
		if err := f.Write(id, page); err != nil {
			return err
		}
	}
	return f.Commit([]byte("after"))
}

// faultSites lists a plain and a torn failure of each of the first writes
// WriteAt calls and a failure of each of the first syncs Sync calls.
func faultSites(writes, syncs int) []FaultPlan {
	var sites []FaultPlan
	for i := 1; i <= writes; i++ {
		sites = append(sites, FaultPlan{FailWrite: i}, FaultPlan{FailWrite: i, TornWrite: true})
	}
	for i := 1; i <= syncs; i++ {
		sites = append(sites, FaultPlan{FailSync: i})
	}
	return sites
}

func (p FaultPlan) String() string {
	switch {
	case p.FailWrite > 0 && p.TornWrite:
		return fmt.Sprintf("torn-write-%d", p.FailWrite)
	case p.FailWrite > 0:
		return fmt.Sprintf("write-%d", p.FailWrite)
	default:
		return fmt.Sprintf("sync-%d", p.FailSync)
	}
}

// TestCrashPointMatrixFile drives a scenario of commits followed by Close —
// so the closing checkpoint's page, header and fsync sites are all reached —
// into a deterministic fault at every write and fsync site (plain failures
// and torn writes), reopens without faults, and asserts the recovered file
// is byte-identical to one of the scenario's committed images — never a
// hybrid.  A commit that reported success may not be lost, a commit that
// never started may not appear, and a Close that reported success leaves the
// last image.  Recovery's own write-back is a crash site as well: from every
// crashed file, every write and fsync of the recovering Open is failed in
// turn, and the next clean Open must still land on the same committed image.
// commitScenario logs whole pages, patchScenario byte-range deltas over the
// data file; chain leaves three records in the WAL at every commit-side
// crash; stale-tail checkpoints midway with a WAL truncate that is lost, so
// its later commits overwrite a stale chain that recovery must not follow.
func TestCrashPointMatrixFile(t *testing.T) {
	for _, sc := range []struct {
		name  string
		steps []func(File) error
	}{
		{"images", []func(File) error{commitScenario}},
		{"deltas", []func(File) error{patchScenario}},
		{"chain", chainSteps},
		{"stale-tail", staleTailSteps},
	} {
		t.Run(sc.name, func(t *testing.T) { crashPointMatrix(t, sc.steps) })
	}
}

func crashPointMatrix(t *testing.T, steps []func(File) error) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(t, template)

	// states[i] is the committed image after the first i steps.
	var states []*fileImage
	for i := 0; i <= len(steps); i++ {
		states = append(states, cleanRun(t, template, filepath.Join(dir, "state.svrdb"), steps[:i]...))
		if i > 0 && states[i].equal(states[i-1]) {
			t.Fatalf("step %d did not change the file; the matrix would prove nothing", i)
		}
	}

	// Counting run: learn how many write and sync sites the scenario has.
	countPath := filepath.Join(dir, "count.svrdb")
	cloneDB(t, template, countPath)
	counter := NewFaultInjector(FaultPlan{})
	cf := mustOpen(t, countPath, WithFaults(counter))
	if _, err := runSteps(cf, steps); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if counter.Writes() < 3 || counter.Syncs() < 2 {
		t.Fatalf("scenario has %d writes and %d syncs; too few for a meaningful matrix", counter.Writes(), counter.Syncs())
	}

	recoverySites := 0
	for _, plan := range faultSites(counter.Writes(), counter.Syncs()) {
		t.Run(plan.String(), func(t *testing.T) {
			work := filepath.Join(dir, "work.svrdb")
			cloneDB(t, template, work)
			fi := NewFaultInjector(plan)
			f, err := Open(work, WithFaults(fi))
			if err != nil {
				t.Fatalf("open with faults failed before the scenario ran: %v", err)
			}
			committed, stepErr := runSteps(f, steps)
			closeErr := f.Close()
			if !fi.Tripped() {
				t.Fatalf("fault site %s never fired", plan)
			}

			// The crash happened.  First crash the recovery too, at each of
			// its sites, on a copy; every copy must then recover cleanly to
			// the image the crashed file itself recovers to.
			crashed := filepath.Join(dir, "crashed.svrdb")
			cloneDB(t, work, crashed)
			rf, err := Open(work)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer rf.Close()
			img := snapshotFile(t, rf)
			landed := slices.IndexFunc(states, img.equal)
			switch {
			case landed < 0:
				t.Fatalf("recovered state is none of the committed images (%d steps committed, step error: %v, close error: %v)", committed, stepErr, closeErr)
			case landed < committed:
				t.Errorf("%d steps reported success but recovery landed on the image after %d", committed, landed)
			case landed > committed+1:
				// The step in flight may have reached its commit point; no
				// later one ran.
				t.Errorf("recovery landed on the image after %d steps, but only %d ran", landed, committed+1)
			case stepErr == nil && closeErr == nil && landed != len(steps):
				t.Errorf("Close reported success but recovery landed on the image after %d of %d steps", landed, len(steps))
			}

			again := filepath.Join(dir, "again.svrdb")
			cloneDB(t, crashed, again)
			rc := NewFaultInjector(FaultPlan{})
			mustOpen(t, again, WithFaults(rc)).Close()
			for _, rplan := range faultSites(rc.Writes(), rc.Syncs()) {
				cloneDB(t, crashed, again)
				rfi := NewFaultInjector(rplan)
				if f, err := Open(again, WithFaults(rfi)); err == nil {
					f.Close()
				}
				if !rfi.Tripped() {
					t.Fatalf("recovery fault site %s never fired", rplan)
				}
				recoverySites++
				if !openImage(t, again).equal(img) {
					t.Errorf("recovery crashed at %s, and the next recovery landed on a different image", rplan)
				}
			}

			// The recovered file must rebuild its free list from the live
			// pages and accept and persist a fresh commit, which takes the
			// lowest free page when there is one.
			if err := rf.Reclaim(states[landed].live()); err != nil {
				t.Fatal(err)
			}
			id, err := rf.Allocate(InvalidPageID)
			if err == nil {
				err = rf.Write(id, bytes.Repeat([]byte{0xE6}, rf.PageSize()))
			}
			if err == nil {
				err = rf.Commit([]byte("fresh"))
			}
			if err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
		})
	}
	if recoverySites == 0 {
		t.Error("no recovery ever wrote: the recovery half of the matrix proved nothing")
	}
}

// lostTruncate drops every Truncate, as a crash that loses a truncate no
// fsync made durable leaves the file.
type lostTruncate struct{ backing }

func (lostTruncate) Truncate(int64) error { return nil }

// staleTailSteps commit staleX and staleY, checkpoint with a WAL truncate
// that is lost, and commit staleZ and one more over the stale chain the
// truncate left.  staleZ's record is exactly as long as staleX's, so until
// the last step overwrites it the record right behind staleZ's is staleY's,
// intact and valid: only its LSN tells recovery that it is not part of the
// chain.
var staleTailSteps = []func(File) error{
	staleX,
	func(f File) error {
		if err := patchAt(f, 2, "YYYY", "y"); err != nil {
			return err
		}
		df := f.(*diskFile)
		df.mu.Lock()
		defer df.mu.Unlock()
		df.wal = lostTruncate{df.wal}
		return df.checkpointLocked()
	},
	staleZ,
	func(f File) error { return patchAt(f, 2, "WWWWWWWW", "w") },
}

func staleX(f File) error { return patchAt(f, 1, "XXXX", "x") }
func staleZ(f File) error { return patchAt(f, 2, "ZZZZ", "z") }

// patchAt overwrites bytes 100.. of page id with text and commits meta.
func patchAt(f File, id PageID, text, meta string) error {
	page := make([]byte, f.PageSize())
	if err := f.Read(id, page); err != nil {
		return err
	}
	copy(page[100:], text)
	if err := f.Write(id, page); err != nil {
		return err
	}
	return f.Commit([]byte(meta))
}

// TestRecoveryStopsAtStaleRecord: after a lost truncate the next commit
// overwrites the WAL's head and leaves a valid record of the old chain right
// behind it.  Recovery must replay the new record and stop at the old one,
// whose LSN does not follow; replaying it would quietly undo the new one.
func TestRecoveryStopsAtStaleRecord(t *testing.T) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(t, template)
	want := cleanRun(t, template, filepath.Join(dir, "want.svrdb"), staleTailSteps[:3]...)

	work := filepath.Join(dir, "work.svrdb")
	loggedNotApplied(t, template, work, staleTailSteps[:3]...)
	wal := readFileBytes(t, WALPath(work))
	z, n, err := decodeWALRecord(wal, 512)
	if err != nil || z == nil || !bytes.Equal(z.meta, []byte("z")) {
		t.Fatalf("the WAL does not start with staleZ's record: %v", err)
	}
	if y, _, err := decodeWALRecord(wal[n:], 512); err != nil || y == nil || y.lsn != z.lsn-1 || !bytes.Equal(y.meta, []byte("y")) {
		t.Fatalf("the record behind staleZ's is not the stale one, intact (%v): the fixture no longer lines the records up", err)
	}
	rf := mustOpen(t, work)
	defer rf.Close()
	if !snapshotFile(t, rf).equal(want) {
		t.Error("recovery did not land on staleZ's commit: it followed the stale record")
	}
}

// TestReclaimRebuildsFreeList: a reopened file knows no free page, however
// many were free when it closed; Reclaim rebuilds the list from the pages
// the caller names live, hands the rest back lowest first and zeroed, and
// refuses a live list naming a page out of range or twice with ErrCorrupt,
// leaving the free list as it was.
func TestReclaimRebuildsFreeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	f, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AllocateN(5); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xEE}, 512)
	for id := PageID(0); id < 5; id++ {
		if err := f.Write(id, junk); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Free(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if got := rf.FreePages(); got != 0 {
		t.Fatalf("FreePages after reopen = %d, want 0 before Reclaim", got)
	}
	for _, live := range [][]PageID{{0, 2, 5}, {0, 2, 4, 2}} {
		if err := rf.Reclaim(live); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Reclaim(%v) = %v, want ErrCorrupt", live, err)
		}
		if got := rf.FreePages(); got != 0 {
			t.Errorf("a refused Reclaim(%v) left %d free pages", live, got)
		}
	}
	if err := rf.Reclaim([]PageID{4, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if got := rf.FreePages(); got != 2 {
		t.Fatalf("FreePages after Reclaim = %d, want 2", got)
	}
	zero := make([]byte, 512)
	buf := make([]byte, 512)
	for _, want := range []PageID{1, 3} {
		id, err := rf.Allocate(InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Errorf("Allocate after Reclaim = page %d, want recycled page %d", id, want)
		}
		if err := rf.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, zero) {
			t.Errorf("recycled page %d not zeroed after reopen", id)
		}
	}
	if rf.NumPages() != 5 {
		t.Errorf("NumPages grew to %d despite recycled allocations", rf.NumPages())
	}
	if st := rf.Stats(); st.Reuses != 2 || st.Frees != 0 {
		t.Errorf("Stats.Reuses = %d, Frees = %d; want 2 and 0 (reclaiming frees nothing)", st.Reuses, st.Frees)
	}
}

// TestRecoveryCountsTornWAL pins that a torn WAL tail is detected, counted
// and discarded rather than replayed.
func TestRecoveryCountsTornWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	f, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(InvalidPageID); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant a torn record: valid magic, then garbage cut short.
	wal, err := os.OpenFile(WALPath(path), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 60)
	copy(torn, walMagic[:])
	if _, err := wal.WriteAt(torn, 0); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	rf, err := Open(path)
	if err != nil {
		t.Fatalf("open with torn WAL: %v", err)
	}
	defer rf.Close()
	if got := rf.Meta(); !bytes.Equal(got, []byte("v1")) {
		t.Errorf("meta after torn-WAL recovery = %q, want %q", got, "v1")
	}
	if st := rf.Stats(); st.TornPages == 0 {
		t.Error("TornPages counter not bumped by torn WAL tail")
	}
}
