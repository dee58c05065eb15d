package pagefile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fileImage is a full logical snapshot of a committed file: every page plus
// the application meta.  Crash-point tests compare recovered files against
// these images byte for byte.
type fileImage struct {
	pages [][]byte
	meta  []byte
	free  int
}

func snapshotFile(t testing.TB, f File) *fileImage {
	t.Helper()
	img := &fileImage{meta: f.Meta(), free: f.FreePages()}
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
	if len(img.pages) != len(other.pages) || !bytes.Equal(img.meta, other.meta) || img.free != other.free {
		return false
	}
	for i := range img.pages {
		if !bytes.Equal(img.pages[i], other.pages[i]) {
			return false
		}
	}
	return true
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
// explores: rewrite one committed page, allocate a new one, and free
// another — exercising in-place writeback, growth and the free chain in a
// single commit.
func commitScenario(f File) error {
	page := make([]byte, f.PageSize())
	for i := range page {
		page[i] = 0xC4
	}
	if err := f.Write(1, page); err != nil {
		return err
	}
	id, err := f.Allocate()
	if err != nil {
		return err
	}
	for i := range page {
		page[i] = 0xD5
	}
	if err := f.Write(id, page); err != nil {
		return err
	}
	if err := f.Free(2); err != nil {
		return err
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

// TestCrashPointMatrixFile drives the commit protocol into a deterministic
// fault at every write and fsync site (plain failures and torn writes),
// reopens without faults, and asserts the recovered file is byte-identical
// to either the pre-commit or the post-commit committed image — never a
// hybrid.  A fault injected before the WAL fsync completes must recover the
// pre state; a successful Commit must recover the post state.  Recovery's
// own write-back is a crash site as well: from every crashed file, every
// write and fsync of the recovering Open is failed in turn, and the next
// clean Open must still land on the same committed image.  commitScenario
// logs whole pages, patchScenario byte-range deltas over the data file.
func TestCrashPointMatrixFile(t *testing.T) {
	for name, scenario := range map[string]func(File) error{"images": commitScenario, "deltas": patchScenario} {
		t.Run(name, func(t *testing.T) { crashPointMatrix(t, scenario) })
	}
}

func crashPointMatrix(t *testing.T, scenario func(File) error) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(t, template)

	// Pre image, and post image from one clean run of the scenario.
	pre := openImage(t, template)
	post := cleanRun(t, template, filepath.Join(dir, "post.svrdb"), scenario)
	if pre.equal(post) {
		t.Fatal("scenario did not change the file; the matrix would prove nothing")
	}

	// Counting run: learn how many write and sync sites the scenario has.
	countPath := filepath.Join(dir, "count.svrdb")
	cloneDB(t, template, countPath)
	counter := NewFaultInjector(FaultPlan{})
	cf := mustOpen(t, countPath, WithFaults(counter))
	if err := scenario(cf); err != nil {
		t.Fatal(err)
	}
	cf.Close()
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
			commitErr := scenario(f)
			f.Close()
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
			switch {
			case img.equal(pre):
				if commitErr == nil {
					t.Error("Commit reported success but recovery landed on the pre state")
				}
			case img.equal(post):
				// Roll-forward of a fully-logged commit: fine whether or not
				// Commit got to report success.
			default:
				t.Fatalf("recovered state is neither the pre- nor the post-commit image (commit err: %v)", commitErr)
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

			// The recovered file must accept and persist a fresh commit.
			id, err := rf.Allocate()
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

// TestFreeListSurvivesReopen pins the satellite requirement: pages freed
// before a commit survive close/reopen through the persisted free chain, are
// handed back in the same LIFO order, and arrive zeroed.
func TestFreeListSurvivesReopen(t *testing.T) {
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
	// Free 1 then 3: LIFO means the next allocations hand back 3 then 1.
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(3); err != nil {
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
	if got := rf.FreePages(); got != 2 {
		t.Fatalf("FreePages after reopen = %d, want 2", got)
	}
	if got := rf.NumPages(); got != 5 {
		t.Fatalf("NumPages after reopen = %d, want 5", got)
	}
	zero := make([]byte, 512)
	buf := make([]byte, 512)
	for _, want := range []PageID{3, 1} {
		id, err := rf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Errorf("Allocate after reopen = page %d, want recycled page %d", id, want)
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
	st := rf.Stats()
	if st.Reuses != 2 {
		t.Errorf("Stats.Reuses = %d, want 2", st.Reuses)
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
	if _, err := f.Allocate(); err != nil {
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
