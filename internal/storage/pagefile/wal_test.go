package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// scriptedBacking fails the failAt-th WriteAt (1-based; 0 never fails) once
// and then works again — unlike the FaultInjector, which models a crash and
// stays dead — and records how many bytes every write carried.
type scriptedBacking struct {
	backing
	failAt int
	writes int
	sizes  []int
}

var errScripted = errors.New("scripted write failure")

func (s *scriptedBacking) WriteAt(p []byte, off int64) (int, error) {
	s.writes++
	if s.writes == s.failAt {
		return 0, errScripted
	}
	s.sizes = append(s.sizes, len(p))
	return s.backing.WriteAt(p, off)
}

// scriptData puts a scriptedBacking under f's data file.
func scriptData(f File, failAt int) *scriptedBacking {
	df := f.(*diskFile)
	s := &scriptedBacking{backing: df.data, failAt: failAt}
	df.data = s
	return s
}

func mustOpen(t testing.TB, path string, opts ...Option) File {
	t.Helper()
	f, err := Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func readFileBytes(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildTemplate commits the crash matrix's pre state — four 512-byte pages
// with distinct fill bytes, meta "before" — at path.
func buildTemplate(t testing.TB, path string) {
	t.Helper()
	f := mustOpen(t, path, WithPageSize(512))
	if _, err := f.AllocateN(4); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 512)
	for id := PageID(0); id < 4; id++ {
		for i := range page {
			page[i] = 0xA0 + byte(id)
		}
		if err := f.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// patchScenario is a commit whose record is mostly deltas: a few bytes of
// two committed pages change, one page is freed, one is appended.
func patchScenario(f File) error {
	page := make([]byte, f.PageSize())
	for _, id := range []PageID{0, 3} {
		if err := f.Read(id, page); err != nil {
			return err
		}
		copy(page[40+id:], "patched")
		page[500] ^= 0xFF
		if err := f.Write(id, page); err != nil {
			return err
		}
	}
	if err := f.Free(2); err != nil {
		return err
	}
	id, err := f.Allocate(InvalidPageID) // recycles page 2
	if err != nil {
		return err
	}
	clear(page)
	copy(page[7:], "reborn")
	if err := f.Write(id, page); err != nil {
		return err
	}
	if err := f.Free(1); err != nil {
		return err
	}
	if _, err := f.AllocateN(2); err != nil { // appends pages 4 and 5, left zero
		return err
	}
	return f.Commit([]byte("after"))
}

// chainSteps is a three-commit chain over the template: patchScenario, then
// a commit that patches page 0 over the first one's runs and frees page 3
// (held since the first commit), then one that reuses pages 3 and 1 (1 was
// freed by the first commit, its bytes the data file's) and patches page 0
// again.
var chainSteps = []func(File) error{patchScenario, chainStep2, chainStep3}

func chainStep2(f File) error {
	page := make([]byte, f.PageSize())
	if err := f.Read(0, page); err != nil {
		return err
	}
	copy(page[38:], "OVERLAPPING")
	if err := f.Write(0, page); err != nil {
		return err
	}
	if err := f.Free(3); err != nil {
		return err
	}
	return f.Commit([]byte("after2"))
}

func chainStep3(f File) error {
	page := make([]byte, f.PageSize())
	for _, want := range []PageID{3, 1} {
		id, err := f.Allocate(InvalidPageID)
		if err != nil {
			return err
		}
		if id != want {
			return fmt.Errorf("Allocate = page %d, want the freed page %d", id, want)
		}
		clear(page)
		copy(page[int(id)*9:], "reused")
		if err := f.Write(id, page); err != nil {
			return err
		}
	}
	if err := f.Read(0, page); err != nil {
		return err
	}
	copy(page[44:], "third")
	if err := f.Write(0, page); err != nil {
		return err
	}
	return f.Commit([]byte("after3"))
}

// runSteps runs steps on f in order and reports how many committed.
func runSteps(f File, steps []func(File) error) (int, error) {
	for i, step := range steps {
		if err := step(f); err != nil {
			return i, err
		}
	}
	return len(steps), nil
}

// checkpoint writes f's held pages back now, as a reached budget would.
func checkpoint(t testing.TB, f File) {
	t.Helper()
	df := f.(*diskFile)
	df.mu.Lock()
	defer df.mu.Unlock()
	if err := df.checkpointLocked(); err != nil {
		t.Fatal(err)
	}
}

// abandon closes f with its closing checkpoint failing at the first write,
// so the file is left exactly as a crash right after the last commit point
// leaves it: the commits since the last checkpoint in the WAL, the data file
// untouched.
func abandon(t testing.TB, f File) {
	t.Helper()
	scriptData(f, 1)
	if err := f.Close(); !errors.Is(err, errScripted) {
		t.Fatalf("Close = %v, want the scripted checkpoint failure", err)
	}
}

// loggedNotApplied runs steps on a clone of template at path and abandons
// the handle: the clone's WAL holds their chain, its data file the template.
func loggedNotApplied(t testing.TB, template, path string, steps ...func(File) error) {
	t.Helper()
	cloneDB(t, template, path)
	f := mustOpen(t, path)
	if _, err := runSteps(f, steps); err != nil {
		t.Fatal(err)
	}
	abandon(t, f)
}

func openImage(t testing.TB, path string) *fileImage {
	t.Helper()
	f := mustOpen(t, path)
	defer f.Close()
	return snapshotFile(t, f)
}

// cleanRun returns the image steps commit on a clone of template.
func cleanRun(t testing.TB, template, path string, steps ...func(File) error) *fileImage {
	t.Helper()
	cloneDB(t, template, path)
	f := mustOpen(t, path)
	defer f.Close()
	if _, err := runSteps(f, steps); err != nil {
		t.Fatal(err)
	}
	return snapshotFile(t, f)
}

// TestRecoveryReplaysRecordAtHeaderLSN is the hand-built crash the fault
// injector cannot produce, because it never reorders writes: a checkpoint
// puts the pages and the header under one fsync, so the header (LSN = N) can
// reach the disk while the pages do not.  The chain is still in the WAL — it
// is truncated only after that fsync — and every record of it must be
// replayed although none has an LSN greater than the header's.
func TestRecoveryReplaysRecordAtHeaderLSN(t *testing.T) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(t, template)
	// cleanRun's Close checkpoints: postPath's header is the chain's.
	postPath := filepath.Join(dir, "post.svrdb")
	post := cleanRun(t, template, postPath, chainSteps...)

	work := filepath.Join(dir, "work.svrdb")
	loggedNotApplied(t, template, work, chainSteps...)
	// New header over old pages.
	data, err := os.OpenFile(work, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := data.WriteAt(readFileBytes(t, postPath)[:512], 0); err != nil {
		t.Fatal(err)
	}
	data.Close()

	rf := mustOpen(t, work)
	defer rf.Close()
	if !snapshotFile(t, rf).equal(post) {
		t.Error("a chain ending at the header's own LSN was not replayed: new header over old pages served as is")
	}
	if rf.Stats().Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", rf.Stats().Recoveries)
	}
}

// TestCommitFailurePoisonsHandle: once a checkpoint has started writing the
// held pages back, a failure leaves the data file a hybrid whose only
// complete copy is the WAL's chain.  The handle must refuse everything from
// then on — above all a second Commit, which would append to a chain whose
// base is no longer the data file — until a reopen replays it.
func TestCommitFailurePoisonsHandle(t *testing.T) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(t, template)
	post := cleanRun(t, template, filepath.Join(dir, "post.svrdb"), chainSteps[:2]...)

	work := filepath.Join(dir, "work.svrdb")
	cloneDB(t, template, work)
	f := mustOpen(t, work)
	if err := chainSteps[0](f); err != nil {
		t.Fatal(err)
	}
	// The second commit reaches the budget and checkpoints; the checkpoint's
	// second write fails, with the data file half written back.
	f.(*diskFile).checkpointBytes = 1
	scriptData(f, 2)
	err := chainSteps[1](f)
	if !errors.Is(err, errScripted) {
		t.Fatalf("Commit error = %v, want the scripted checkpoint failure", err)
	}
	wal := readFileBytes(t, WALPath(work))
	if rec, n, derr := decodeWALRecord(wal, 512); derr != nil || rec == nil {
		t.Fatalf("the WAL holds no first record: %v", derr)
	} else if rec2, _, derr := decodeWALRecord(wal[n:], 512); derr != nil || rec2 == nil || rec2.lsn != rec.lsn+1 {
		t.Fatalf("the WAL holds no second record after the first: %v", derr)
	}

	// The scripted backing works again; only the sticky error can refuse.
	page := make([]byte, 512)
	if werr := f.Write(0, page); werr != err {
		t.Errorf("Write after failed checkpoint = %v, want the checkpoint's error", werr)
	}
	if _, aerr := f.Allocate(InvalidPageID); aerr != err {
		t.Errorf("Allocate after failed checkpoint = %v, want the checkpoint's error", aerr)
	}
	if rerr := f.Read(0, page); rerr != err {
		t.Errorf("Read after failed checkpoint = %v, want the checkpoint's error", rerr)
	}
	if cerr := f.Commit([]byte("next batch")); cerr != err {
		t.Errorf("Commit after failed checkpoint = %v, want the checkpoint's error", cerr)
	}
	if !bytes.Equal(readFileBytes(t, WALPath(work)), wal) {
		t.Error("the WAL changed after the failed checkpoint")
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close of a poisoned handle: %v", err)
	}

	if !openImage(t, work).equal(post) {
		t.Error("reopen did not roll the logged chain forward")
	}
}

// TestFreeLogsNothing: freeing a committed page logs nothing and the
// checkpoint writes nothing for it — the page keeps its bytes, which are
// dead — and allocation still hands it back zeroed.
func TestFreeLogsNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.svrdb")
	buildTemplate(t, path)
	f := mustOpen(t, path)
	defer f.Close()
	back := scriptData(f, 0)
	wal0 := f.Stats().WALBytes
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("freed")); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Stats().WALBytes-wal0, uint64(walHeaderSize+len("freed")+4); got != want {
		t.Errorf("freeing two pages logged %d bytes, want a record without entries (%d)", got, want)
	}
	checkpoint(t, f)
	if want := []int{512}; !slices.Equal(back.sizes, want) {
		t.Errorf("write-back sizes %v, want the header alone %v", back.sizes, want)
	}
	page := make([]byte, 512)
	if err := f.Read(3, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, bytes.Repeat([]byte{0xA3}, 512)) {
		t.Error("a freed page lost its old bytes")
	}
	id, err := f.Allocate(InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Read(id, page); err != nil {
		t.Fatal(err)
	}
	if id != 3 || !isAllZero(page) {
		t.Errorf("Allocate handed back page %d, zeroed=%v; want page 3 zeroed", id, isAllZero(page))
	}
}

// TestWALBytesByClass: Stats splits each commit's logged entry bytes by
// what the page was in its window (see Stats.WALBytesPreferred), and the
// classes and the record headers add up to WALBytes.  A page taken from the
// free list for a few bytes logs those bytes against zeros, not its
// difference from the unrelated page it held, and replays to them.
func TestWALBytesByClass(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	f := mustOpen(t, path, WithPageSize(512))
	defer func() { f.Close() }()
	write := func(id PageID, b byte, n int) {
		t.Helper()
		page := make([]byte, 512)
		for i := range n {
			page[i] = b + byte(i)
		}
		if err := f.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	commits := 0
	commit := func() Stats {
		t.Helper()
		before := f.Stats()
		if err := f.Commit(nil); err != nil {
			t.Fatal(err)
		}
		commits++
		st := f.Stats()
		classes := []uint64{st.WALBytesPreferred, st.WALBytesElsewhere, st.WALBytesInPlace, st.WALBytesPastEnd}
		var sum uint64
		for i, c := range classes {
			c -= []uint64{before.WALBytesPreferred, before.WALBytesElsewhere, before.WALBytesInPlace, before.WALBytesPastEnd}[i]
			classes[i] = c
			sum += c
		}
		if got := st.WALBytes - before.WALBytes; got != sum+walHeaderSize+4 {
			t.Errorf("commit %d logged %d bytes, classes %v add up to %d beside a %d-byte header", commits, got, classes, sum, walHeaderSize+4)
		}
		return Stats{WALBytesPreferred: classes[0], WALBytesElsewhere: classes[1], WALBytesInPlace: classes[2], WALBytesPastEnd: classes[3]}
	}
	if _, err := f.AllocateN(4); err != nil {
		t.Fatal(err)
	}
	for id := PageID(0); id < 4; id++ {
		write(id, 0x10*byte(id+1), 512)
	}
	if st := commit(); st.WALBytesPastEnd == 0 || st.WALBytesPastEnd != commitSum(st) {
		t.Errorf("a first commit logged %+v, want pages past the end only", st)
	}
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Commits != uint64(commits) {
		t.Errorf("a window that only freed pages committed a record (%d commits, want %d)", st.Commits, commits)
	}
	hit, err := f.Allocate(1)
	if err != nil || hit != 1 {
		t.Fatalf("Allocate(1) = %d, %v", hit, err)
	}
	write(1, 0x20, 500) // page 1 held 0x20.. over 512 bytes: a small delta
	miss, err := f.Allocate(3)
	if err != nil || miss != 2 {
		t.Fatalf("Allocate(3) = %d, %v", miss, err)
	}
	write(2, 0x77, 8) // 8 bytes over page 2's unrelated 512
	write(0, 0x55, 4)
	grown, err := f.Allocate(InvalidPageID)
	if err != nil || grown != 4 {
		t.Fatalf("Allocate() = %d, %v", grown, err)
	}
	write(4, 0x66, 16)
	st := commit()
	if st.WALBytesPreferred == 0 || st.WALBytesPreferred > 64 {
		t.Errorf("a copy back on its page logged %d bytes, want a small delta", st.WALBytesPreferred)
	}
	if st.WALBytesElsewhere == 0 || st.WALBytesElsewhere > 64 {
		t.Errorf("8 bytes on a page taken from the free list logged %d bytes, want them against zeros", st.WALBytesElsewhere)
	}
	if st.WALBytesInPlace == 0 || st.WALBytesPastEnd == 0 {
		t.Errorf("in place %d, past the end %d; want both set", st.WALBytesInPlace, st.WALBytesPastEnd)
	}
	// Replay: reopen from the WAL alone, as after a crash before any
	// checkpoint wrote the pages back.
	wal := readFileBytes(t, WALPath(path))
	data := readFileBytes(t, path)
	f.Close()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(WALPath(path), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	f = mustOpen(t, path)
	got := make([]byte, 512)
	if err := f.Read(2, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 512)
	copy(want, []byte{0x77, 0x78, 0x79, 0x7a, 0x7b, 0x7c, 0x7d, 0x7e})
	if !bytes.Equal(got, want) {
		t.Errorf("page 2 replayed to %x..., want its 8 bytes over zeros", got[:16])
	}
}

// commitSum adds up one commit's WAL bytes by class.
func commitSum(st Stats) uint64 {
	return st.WALBytesPreferred + st.WALBytesElsewhere + st.WALBytesInPlace + st.WALBytesPastEnd
}

// TestWritesCountCheckpointWriteBack: Stats.Writes and BytesWritten count
// what the data file receives.  Commits alone write nothing to it; the
// checkpoint at Close writes each held page once — however many commits
// rewrote it — and nothing for a freed page that was not held, and the
// counters then equal the data-file writes the fault injector saw, the
// header excluded.
func TestWritesCountCheckpointWriteBack(t *testing.T) {
	const commits = 5
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	buildTemplate(t, path)
	fi := NewFaultInjector(FaultPlan{})
	f := mustOpen(t, path, WithFaults(fi))
	data := scriptData(f, 0)
	st0, writes0 := f.Stats(), fi.Writes()
	page := make([]byte, 512)
	for c := 0; c < commits; c++ {
		// Page 0 in every commit, page 1 or 2 in turn.
		for _, id := range []PageID{0, PageID(1 + c%2)} {
			page[c] = byte(c + 1)
			if err := f.Write(id, page); err != nil {
				t.Fatal(err)
			}
		}
		if c == commits-1 {
			if err := f.Free(3); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Commit([]byte{byte(c)}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Writes != st0.Writes || st.BytesWritten != st0.BytesWritten || len(data.sizes) != 0 {
		t.Errorf("%d commits wrote %d pages (%d bytes, data file saw %v), want none before the checkpoint", commits, st.Writes-st0.Writes, st.BytesWritten-st0.BytesWritten, data.sizes)
	}
	if got := st.Fsyncs - st0.Fsyncs; got != commits {
		t.Errorf("%d commits issued %d fsyncs, want one each", commits, got)
	}
	if got := fi.Writes() - writes0; got != commits {
		t.Errorf("%d commits issued %d writes, want one WAL append each", commits, got)
	}
	if st.HeldPages != 3 || st.WALPending != st.WALBytes-st0.WALBytes || st.Checkpoints != 0 {
		t.Errorf("held %d pages, %d WAL bytes pending of %d appended, %d checkpoints; want 3, all, 0", st.HeldPages, st.WALPending, st.WALBytes-st0.WALBytes, st.Checkpoints)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	pages, bytesOut := 0, 0
	for _, n := range data.sizes[:len(data.sizes)-1] { // the last write is the header
		pages++
		bytesOut += n
	}
	if want := fi.Writes() - writes0 - commits - 1; pages != want {
		t.Fatalf("the data file saw %d page writes, the fault injector %d beside the WAL and the header", pages, want)
	}
	if st.Writes-st0.Writes != uint64(pages) || st.BytesWritten-st0.BytesWritten != uint64(bytesOut) {
		t.Errorf("Writes/BytesWritten = %d/%d, the data file received %d/%d", st.Writes-st0.Writes, st.BytesWritten-st0.BytesWritten, pages, bytesOut)
	}
	if want := 3 * 512; pages != 3 || bytesOut != want {
		t.Errorf("the checkpoint wrote %d pages, %d bytes; want pages 0-2 once each, %d bytes", pages, bytesOut, want)
	}
	if st.Checkpoints != 1 || st.HeldPages != 0 || st.WALPending != 0 {
		t.Errorf("after Close: %d checkpoints, %d held pages, %d WAL bytes pending; want 1, 0, 0", st.Checkpoints, st.HeldPages, st.WALPending)
	}
}

// TestHeldFreedPageIsNotWrittenBack: a page a commit rewrote and a later
// commit freed is not written back — the data file keeps its older bytes —
// unless the open window freed it, which Close discards, or it lies past the
// data file's end (TestFreedPagePastFileEndIsWrittenWhole).
func TestHeldFreedPageIsNotWrittenBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	buildTemplate(t, path)
	f := mustOpen(t, path)
	data := scriptData(f, 0)
	page := bytes.Repeat([]byte{0xB1}, 512)
	for _, id := range []PageID{1, 2} {
		if err := f.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit([]byte("rewrite")); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("free")); err != nil {
		t.Fatal(err)
	}
	// Freed in the open window only: Close discards the window, so page 2
	// is live and must be written whole.
	if err := f.Free(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []int{512, 512}; !slices.Equal(data.sizes, want) {
		t.Errorf("write-back sizes %v, want page 2 and the header %v", data.sizes, want)
	}
	f = mustOpen(t, path)
	defer f.Close()
	got := make([]byte, 512)
	if err := f.Read(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xA1}, 512)) {
		t.Error("page 1 is not the data file's older bytes")
	}
	if err := f.Read(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Error("page 2, freed only by the discarded window, lost its committed image")
	}
	reclaimAllBut(t, f, 1)
	if n := f.FreePages(); n != 1 {
		t.Errorf("%d free pages after Reclaim, want page 1 alone", n)
	}
}

// TestFreedPagePastFileEndIsWrittenWhole: a page allocated past the data
// file's end, committed, freed and committed must be written back whole, or
// the file ends inside it and the next commit that reuses it fails reading
// its before-image.
func TestFreedPagePastFileEndIsWrittenWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	buildTemplate(t, path)
	f := mustOpen(t, path)
	id, err := f.Allocate(InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("Allocate = page %d, want page 4 past the file's end", id)
	}
	page := bytes.Repeat([]byte{0xC4}, 512)
	if err := f.Write(id, page); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("grow")); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("free")); err != nil {
		t.Fatal(err)
	}
	checkpoint(t, f)
	if got, err := f.Allocate(InvalidPageID); err != nil || got != id {
		t.Fatalf("Allocate = page %d, %v; want page %d back", got, err, id)
	}
	page[7] = 0x77
	if err := f.Write(id, page); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("reuse")); err != nil {
		t.Fatalf("reusing the page after the checkpoint: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f = mustOpen(t, path)
	defer f.Close()
	got := make([]byte, 512)
	if err := f.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Error("the reused page does not survive a reopen")
	}
}

// TestReadsDuringCommitsAndCheckpoints: readers serve staged, held and
// data-file pages while a writer commits and checkpoints under them.  Every
// page is always one byte repeated, so a read that mixed two versions of a
// page shows.  Run it with -race.
func TestReadsDuringCommitsAndCheckpoints(t *testing.T) {
	const pages, commits = 8, 60
	f := mustOpen(t, filepath.Join(t.TempDir(), "pages.svrdb"), WithPageSize(512))
	defer f.Close()
	f.(*diskFile).checkpointBytes = 3 * 512
	if _, err := f.AllocateN(pages); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := f.Read(PageID(i%pages), buf); err != nil {
					t.Error(err)
					return
				}
				if bytes.Count(buf, buf[:1]) != len(buf) {
					t.Errorf("page %d read as a mix of versions", i%pages)
					return
				}
			}
		}()
	}
	page := make([]byte, 512)
	for c := 1; c <= commits; c++ {
		for k := 0; k < 3; k++ {
			for i := range page {
				page[i] = byte(c)
			}
			if err := f.Write(PageID((c*3+k)%pages), page); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if f.Stats().Checkpoints == 0 {
		t.Error("no checkpoint ran under the readers")
	}
}

// TestRecoveryRefusesChangedBase: a delta record is only meaningful over the
// pages it was cut against.  If a base page changed outside the logged runs
// the rebuilt image fails its checksum; Open reports ErrCorrupt and leaves
// the data file byte for byte as it found it.  A flipped byte in the record
// itself fails the record checksum: the record is discarded like a torn
// tail, never applied.
func TestRecoveryRefusesChangedBase(t *testing.T) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(t, template)
	pre := openImage(t, template)
	crashed := filepath.Join(dir, "crashed.svrdb")
	loggedNotApplied(t, template, crashed, patchScenario)

	t.Run("base page changed", func(t *testing.T) {
		work := filepath.Join(dir, "base.svrdb")
		cloneDB(t, crashed, work)
		data := readFileBytes(t, work)
		data[512*(1+3)+300] ^= 0x01 // page 3, outside its runs
		if err := os.WriteFile(work, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(work); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open over a changed base page = %v, want ErrCorrupt", err)
		}
		if !bytes.Equal(readFileBytes(t, work), data) {
			t.Error("a refused record still wrote to the data file")
		}
	})
	t.Run("record byte flipped", func(t *testing.T) {
		wal := readFileBytes(t, WALPath(crashed))
		for _, at := range []int{9, walHeaderSize + 10, len(wal) / 2, len(wal) - 5} {
			work := filepath.Join(dir, "flip.svrdb")
			cloneDB(t, crashed, work)
			flipped := bytes.Clone(wal)
			flipped[at] ^= 0x10
			if err := os.WriteFile(WALPath(work), flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := Open(work)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("flip at %d: Open = %v, want success or ErrCorrupt", at, err)
				}
				continue
			}
			if !snapshotFile(t, f).equal(pre) {
				t.Errorf("flip at %d: a record failing its checksum was applied", at)
			}
			if f.Stats().TornPages == 0 {
				t.Errorf("flip at %d: discarded record not counted in TornPages", at)
			}
			f.Close()
		}
	})
}

// TestDiskFileMatchesModel drives random write / patch / allocate / free /
// reuse / preferred-reuse / commit / reopen sequences — some cut short after
// a commit point, at a random write of the checkpoint that follows it, in the
// commit or at Close — against an in-memory model, and requires every
// allocated page of every reopened file to equal the model, and the free
// stack, rebuilt by Reclaim from the model's live pages, to equal the
// model's: every free page, highest first.
func TestDiskFileMatchesModel(t *testing.T) {
	const pageSize = 512
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "model.svrdb")
		f := mustOpen(t, path, WithPageSize(pageSize))
		// Odd seeds checkpoint every few pages, so held pages, held freed
		// pages and checkpoints between commits are all exercised; even seeds
		// only at Close.
		budget := func() {
			if seed%2 == 1 {
				f.(*diskFile).checkpointBytes = 4 * pageSize
			}
		}
		budget()

		// committed and pending are the model: page contents by ID, nil for a
		// free page (whose bytes are unspecified), and the pending free
		// stack, top last.  reserved is the reserved pages, which no commit
		// makes durable.
		var committed, pending [][]byte
		var pendingFree []PageID
		reserved := map[PageID]bool{}
		clonePages := func(src [][]byte) [][]byte {
			out := make([][]byte, len(src))
			for i, p := range src {
				out[i] = bytes.Clone(p)
			}
			return out
		}
		check := func(when string) {
			t.Helper()
			if got := f.NumPages(); got != uint64(len(pending)) {
				t.Fatalf("seed %d %s: NumPages = %d, model has %d", seed, when, got, len(pending))
			}
			free := 0
			buf := make([]byte, pageSize)
			for id, want := range pending {
				if want == nil {
					free++
					continue
				}
				if err := f.Read(PageID(id), buf); err != nil {
					t.Fatalf("seed %d %s: read page %d: %v", seed, when, id, err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("seed %d %s: page %d differs from the model", seed, when, id)
				}
			}
			if got := f.FreePages(); got != free {
				t.Fatalf("seed %d %s: FreePages = %d, model has %d", seed, when, got, free)
			}
			if got := f.(*diskFile).free; !slices.Equal(got, pendingFree) {
				t.Fatalf("seed %d %s: free stack %v, model has %v", seed, when, got, pendingFree)
			}
			if got := f.Stats().ReservedPages; got != uint64(len(reserved)) {
				t.Fatalf("seed %d %s: ReservedPages = %d, model has %d", seed, when, got, len(reserved))
			}
		}
		allocated := func() []int {
			var ids []int
			for id, p := range pending {
				if p != nil {
					ids = append(ids, id)
				}
			}
			return ids
		}
		reopen := func() {
			t.Helper()
			f.Close()
			f = mustOpen(t, path)
			budget()
			pending = clonePages(committed)
			var live []PageID
			pendingFree = pendingFree[:0]
			for id := len(pending) - 1; id >= 0; id-- {
				if pending[id] == nil {
					pendingFree = append(pendingFree, PageID(id))
				} else {
					live = append(live, PageID(id))
				}
			}
			if err := f.Reclaim(live); err != nil {
				t.Fatal(err)
			}
			clear(reserved)
		}
		// unreserved returns the free stack's slots of unreserved pages,
		// bottom first.
		unreserved := func() []int {
			var slots []int
			for i, id := range pendingFree {
				if !reserved[id] {
					slots = append(slots, i)
				}
			}
			return slots
		}
		// take checks that an allocation of n pages at id handed out free
		// pages, and moves them out of the model's free stack and reserved
		// set.
		take := func(id PageID, n int) {
			t.Helper()
			for k := 0; k < n; k++ {
				if int(id)+k == len(pending) {
					pending = append(pending, nil)
				}
				if pending[int(id)+k] != nil {
					t.Fatalf("seed %d: allocation handed out live page %d", seed, int(id)+k)
				}
				pending[int(id)+k] = make([]byte, pageSize)
				delete(reserved, id+PageID(k))
			}
			pendingFree = slices.DeleteFunc(pendingFree, func(p PageID) bool { return p >= id && p < id+PageID(n) })
		}

		for step := 0; step < 300; step++ {
			ids := allocated()
			switch op := rng.Intn(21); {
			case op < 4 && len(ids) > 0: // rewrite a page
				id := ids[rng.Intn(len(ids))]
				rng.Read(pending[id])
				if err := f.Write(PageID(id), pending[id]); err != nil {
					t.Fatal(err)
				}
			case op < 10 && len(ids) > 0: // patch a few bytes
				id := ids[rng.Intn(len(ids))]
				for k := rng.Intn(4) + 1; k > 0; k-- {
					at := rng.Intn(pageSize - 8)
					rng.Read(pending[id][at : at+1+rng.Intn(8)])
				}
				if err := f.Write(PageID(id), pending[id]); err != nil {
					t.Fatal(err)
				}
			case op < 12: // allocate: recycles a free page when there is one
				var id PageID
				var err error
				n := 1
				want := PageID(len(pending))
				if rng.Intn(4) == 0 {
					n = 2 + rng.Intn(2)
					id, err = f.AllocateN(n)
				} else {
					// The topmost unreserved page, else the top, else a
					// new page.
					if slots := unreserved(); len(slots) > 0 {
						want = pendingFree[slots[len(slots)-1]]
					} else if len(pendingFree) > 0 {
						want = pendingFree[len(pendingFree)-1]
					}
					id, err = f.Allocate(InvalidPageID)
				}
				if err != nil {
					t.Fatal(err)
				}
				if n == 1 && id != want {
					t.Fatalf("seed %d: Allocate() = page %d, want %d", seed, id, want)
				}
				take(id, n)
			case op < 13: // allocate asking for a page, free or live
				prefer := PageID(rng.Intn(len(pending) + 1))
				want := PageID(len(pending))
				if int(prefer) < len(pending) && pending[prefer] == nil {
					want = prefer
				} else if slots := unreserved(); len(slots) > 0 {
					want = pendingFree[slots[0]] // the oldest unreserved page, never a reserved one
				}
				id, err := f.Allocate(prefer)
				if err != nil {
					t.Fatal(err)
				}
				if id != want {
					t.Fatalf("seed %d: Allocate(%d) = page %d, want %d", seed, prefer, id, want)
				}
				delete(reserved, prefer)
				take(id, 1)
			case op < 14 && len(pending) > 0: // reserve a page, free or live, or release one
				id := PageID(rng.Intn(len(pending)))
				if len(pendingFree) > 0 && rng.Intn(2) == 0 {
					id = pendingFree[rng.Intn(len(pendingFree))]
				}
				if rng.Intn(3) == 0 {
					f.Release(id)
					delete(reserved, id)
				} else {
					f.Reserve(id)
					reserved[id] = true
				}
			case op < 16 && len(ids) > 0: // free
				id := ids[rng.Intn(len(ids))]
				if err := f.Free(PageID(id)); err != nil {
					t.Fatal(err)
				}
				pending[id] = nil
				pendingFree = append(pendingFree, PageID(id))
			case op < 19: // commit, sometimes cut short after the commit point
				meta := []byte(fmt.Sprintf("step-%d", step))
				if rng.Intn(3) == 0 {
					scriptData(f, 1+rng.Intn(4))
					err := f.Commit(meta)
					committed = clonePages(pending)
					if err != nil && !errors.Is(err, errScripted) {
						t.Fatal(err)
					}
					reopen()
					if got := f.Meta(); !bytes.Equal(got, meta) {
						t.Fatalf("seed %d step %d: meta %q after replay, want %q", seed, step, got, meta)
					}
					check("after a cut-short commit and reopen")
					continue
				}
				if err := f.Commit(meta); err != nil {
					t.Fatal(err)
				}
				committed = clonePages(pending)
			case op < 20: // reopen: the uncommitted window is lost
				reopen()
			}
			check(fmt.Sprintf("step %d", step))
		}
		f.Close()
	}
}

// --- fuzzing -------------------------------------------------------------------

// testRecord assembles a WAL record by hand: hdr's fields, the given raw
// entries, and a correct trailing checksum.
func testRecord(hdr header, entries ...[]byte) []byte {
	body := bytes.Join(entries, nil)
	buf := append([]byte(nil), walMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.lsn)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.nPages)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hdr.pageSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr.meta)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(body)))
	buf = append(buf, hdr.meta...)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// testDeltaEntry is one delta-on-disk entry whose run list is the uvarints
// in fields followed by tail — well formed or not, as the caller likes.
func testDeltaEntry(id PageID, crc uint32, fields []uint64, tail []byte) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(id))
	buf = append(buf, entryDeltaOnDisk)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	for _, v := range fields {
		buf = binary.AppendUvarint(buf, v)
	}
	return append(buf, tail...)
}

// modelRecovery is what Open must make of wal as the sidecar of a file whose
// committed image is base at commit lsn, computed without the recovery code:
// the LSN-contiguous prefix of wal's records, each entry applied in order
// over the page as the records before it left it, cut to the last record's
// page count, with its meta.  A prefix whose records are all
// older than lsn changes nothing.  It returns nil when Open must fail: the
// prefix starts past lsn+1, or claims more pages than base and its entries
// can hold.
func modelRecovery(base *fileImage, lsn uint64, wal []byte) *fileImage {
	var chain []*walRecord
	entries := 0
	for off := 0; off < len(wal); {
		rec, n, err := decodeWALRecord(wal[off:], 512)
		if err != nil || rec == nil || (len(chain) > 0 && rec.lsn != chain[len(chain)-1].lsn+1) {
			break
		}
		chain = append(chain, rec)
		entries += len(rec.entries)
		off += n
	}
	if len(chain) == 0 || chain[len(chain)-1].lsn < lsn {
		return base
	}
	last := chain[len(chain)-1]
	// Open bounds the page count by the data file's pages (the header page
	// included) plus the entries.
	if chain[0].lsn > lsn+1 || last.nPages > uint64(len(base.pages)+1+entries) {
		return nil
	}
	pages := make([][]byte, max(len(base.pages), int(last.nPages)))
	for i := range pages {
		pages[i] = make([]byte, 512)
		if i < len(base.pages) {
			copy(pages[i], base.pages[i])
		}
	}
	for _, rec := range chain {
		for _, e := range rec.entries {
			page := pages[e.id]
			if e.kind == entryDeltaOnZero {
				clear(page)
			}
			applyRuns(page, e.runs)
		}
	}
	return &fileImage{pages: pages[:last.nPages], meta: last.meta}
}

// FuzzWALRecord feeds arbitrary bytes to Open as the WAL sidecar of a small
// valid file.  Open must never panic, and must either fail with ErrCorrupt
// (an older WAL format: with the version error) or land on exactly modelRecovery's
// image.  With resum set the harness recomputes the first record's trailing
// checksum, so that mutated entries reach the entry parser and the replay.
// A refusal of bytes given as they are leaves the data file untouched.
func FuzzWALRecord(f *testing.F) {
	dir := f.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(f, template)
	pre := openImage(f, template)
	crashed := filepath.Join(dir, "crashed.svrdb")
	loggedNotApplied(f, template, crashed, patchScenario)
	valid := readFileBytes(f, WALPath(crashed))
	loggedNotApplied(f, template, crashed, chainSteps...)
	chain := readFileBytes(f, WALPath(crashed))
	_, n1, err := decodeWALRecord(chain, 512)
	if err != nil {
		f.Fatal(err)
	}
	_, n2, err := decodeWALRecord(chain[n1:], 512)
	if err != nil {
		f.Fatal(err)
	}
	data := readFileBytes(f, template)

	hdr := header{pageSize: 512, nPages: 4, lsn: 2, meta: []byte("seed")}
	patched := bytes.Repeat([]byte{0xA1}, 512)
	copy(patched[16:], "xyz")
	f.Add(valid, false)
	f.Add(valid[:len(valid)/2], false) // truncated
	// One run, run count / gap / length, then the bytes: a run that overruns
	// the page, a run count larger than the record, a wrong post-image
	// checksum, and a well-formed commit of a third state.
	f.Add(testRecord(hdr, testDeltaEntry(1, 0, []uint64{1, 500, 100}, make([]byte, 100))), false)
	f.Add(testRecord(hdr, testDeltaEntry(1, 0, []uint64{40, 1, 1}, []byte("x"))), false)
	f.Add(testRecord(hdr, testDeltaEntry(1, 0xDEADBEEF, []uint64{1, 16, 3}, []byte("xyz"))), false)
	f.Add(testRecord(hdr, testDeltaEntry(1, crc32.Checksum(patched, crcTable), []uint64{1, 16, 3}, []byte("xyz"))), false)
	v1 := bytes.Clone(valid)
	copy(v1, "10LAWRVS") // the v1 magic as v1 wrote it
	f.Add(v1, false)
	f.Add(valid, true)
	// Chains: three records whose runs overlap on page 0 and that free and
	// reuse pages 3 and 1; the same with the second record torn; and two of
	// them followed by a stale copy of the first, as a lost truncate leaves
	// an old record behind a new chain.
	f.Add(chain, false)
	f.Add(chain[:n1+n2/2], false)
	f.Add(append(bytes.Clone(chain[:n1+n2]), chain[:n1]...), false)
	v3 := bytes.Clone(valid)
	copy(v3, "SVRWAL03") // the format that logged free-list links
	f.Add(v3, false)
	// A first record torn after 7 bytes, and one whose magic's last byte is
	// damaged: torn tails, discarded, not older formats.
	f.Add([]byte("SVRWAL0"), false)
	damaged := bytes.Clone(valid)
	damaged[7] = '5'
	f.Add(damaged, false)

	f.Fuzz(func(t *testing.T, wal []byte, resum bool) {
		if resum {
			if len(wal) < walHeaderSize+4 {
				return
			}
			wal = bytes.Clone(wal)
			metaLen := min(int(binary.LittleEndian.Uint32(wal[28:32])), metaMax, len(wal)-walHeaderSize-4)
			binary.LittleEndian.PutUint32(wal[28:32], uint32(metaLen))
			binary.LittleEndian.PutUint64(wal[36:44], uint64(len(wal)-walHeaderSize-4-metaLen))
			binary.LittleEndian.PutUint32(wal[len(wal)-4:], crc32.Checksum(wal[:len(wal)-4], crcTable))
		}
		work := filepath.Join(t.TempDir(), "fuzz.svrdb")
		if err := os.WriteFile(work, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(work), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		// 512-byte pages, at least 9 bytes per entry: the chain cannot have
		// added more pages than this.
		limit := uint64(5 + len(wal)/9)
		want := modelRecovery(pre, 1, wal)
		file, err := Open(work)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !oldWALFormat(wal) {
				t.Fatalf("Open failed with %v, want ErrCorrupt", err)
			}
			after := readFileBytes(t, work)
			if !resum && !bytes.Equal(after, data) {
				t.Fatalf("Open refused the WAL (%v) but changed the data file", err)
			}
			if uint64(len(after)) > (limit+1)*512 {
				t.Fatalf("data file grew to %d bytes over %d WAL bytes", len(after), len(wal))
			}
			return
		}
		defer file.Close()
		if want == nil {
			t.Fatal("Open accepted a WAL the model refuses")
		}
		if file.NumPages() > limit {
			t.Fatalf("NumPages = %d after replaying %d WAL bytes", file.NumPages(), len(wal))
		}
		if got := uint64(len(readFileBytes(t, work))); got != (file.NumPages()+1)*512 {
			t.Fatalf("data file is %d bytes for %d pages", got, file.NumPages())
		}
		if !snapshotFile(t, file).equal(want) {
			t.Fatal("Open landed on a different image than the model's replay of the chain")
		}
	})
}
