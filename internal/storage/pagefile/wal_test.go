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
	id, err := f.Allocate() // recycles page 2
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

// loggedNotApplied runs scenario on a clone of template with the first
// write-back write failing, so the clone is left exactly as a crash right
// after the commit point leaves it: data file untouched, record in the WAL.
func loggedNotApplied(t testing.TB, template, path string, scenario func(File) error) {
	t.Helper()
	cloneDB(t, template, path)
	f := mustOpen(t, path)
	scriptData(f, 1)
	if err := scenario(f); !errors.Is(err, errScripted) {
		t.Fatalf("scenario error = %v, want the scripted write-back failure", err)
	}
	f.Close()
}

func openImage(t testing.TB, path string) *fileImage {
	t.Helper()
	f := mustOpen(t, path)
	defer f.Close()
	return snapshotFile(t, f)
}

// cleanRun returns the image scenario commits on a clone of template.
func cleanRun(t testing.TB, template, path string, scenario func(File) error) *fileImage {
	t.Helper()
	cloneDB(t, template, path)
	f := mustOpen(t, path)
	defer f.Close()
	if err := scenario(f); err != nil {
		t.Fatal(err)
	}
	return snapshotFile(t, f)
}

// TestRecoveryReplaysRecordAtHeaderLSN is the hand-built crash the fault
// injector cannot produce, because it never reorders writes: Commit puts the
// pages and the header under one fsync, so the header (LSN = N) can reach the
// disk while the pages do not.  The record is still in the WAL — it is
// truncated only after that fsync — and must be replayed although its LSN is
// not greater than the header's.
func TestRecoveryReplaysRecordAtHeaderLSN(t *testing.T) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(t, template)
	postPath := filepath.Join(dir, "post.svrdb")
	post := cleanRun(t, template, postPath, patchScenario)

	work := filepath.Join(dir, "work.svrdb")
	loggedNotApplied(t, template, work, patchScenario)
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
		t.Error("a record at the header's own LSN was not replayed: new header over old pages served as is")
	}
	if rf.Stats().Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", rf.Stats().Recoveries)
	}
}

// TestCommitFailurePoisonsHandle: once a commit's record is on disk, a
// write-back failure leaves the data file a hybrid whose only complete copy
// is the WAL.  The handle must refuse everything from then on — above all a
// second Commit, which would overwrite that record — until a reopen replays
// it.
func TestCommitFailurePoisonsHandle(t *testing.T) {
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(t, template)
	post := cleanRun(t, template, filepath.Join(dir, "post.svrdb"), patchScenario)

	work := filepath.Join(dir, "work.svrdb")
	cloneDB(t, template, work)
	f := mustOpen(t, work)
	scriptData(f, 2) // the second write-back write: the data file is half applied
	err := patchScenario(f)
	if !errors.Is(err, errScripted) {
		t.Fatalf("Commit error = %v, want the scripted write-back failure", err)
	}
	wal := readFileBytes(t, WALPath(work))
	if len(wal) == 0 {
		t.Fatal("the failed commit left no WAL record")
	}

	// The scripted backing works again; only the sticky error can refuse.
	page := make([]byte, 512)
	if werr := f.Write(0, page); werr != err {
		t.Errorf("Write after failed commit = %v, want the commit's error", werr)
	}
	if _, aerr := f.Allocate(); aerr != err {
		t.Errorf("Allocate after failed commit = %v, want the commit's error", aerr)
	}
	if rerr := f.Read(0, page); rerr != err {
		t.Errorf("Read after failed commit = %v, want the commit's error", rerr)
	}
	if cerr := f.Commit([]byte("next batch")); cerr != err {
		t.Errorf("second Commit = %v, want the first commit's error", cerr)
	}
	if !bytes.Equal(readFileBytes(t, WALPath(work)), wal) {
		t.Error("the WAL changed after the failed commit")
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close of a poisoned handle: %v", err)
	}

	if !openImage(t, work).equal(post) {
		t.Error("reopen did not roll the logged commit forward")
	}
}

// TestFreeCostsALink: freeing a committed page logs and writes back its
// chain link, not a page image; the page's other bytes stay what they were,
// and allocation still hands it back zeroed.
func TestFreeCostsALink(t *testing.T) {
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
	if err := f.Commit([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().WALBytes - wal0; got > 128 {
		t.Errorf("freeing two pages logged %d bytes, want link-sized entries", got)
	}
	if want := []int{freeLinkSize, freeLinkSize, 512}; fmt.Sprint(back.sizes) != fmt.Sprint(want) {
		t.Errorf("write-back sizes %v, want two links and the header %v", back.sizes, want)
	}
	page := make([]byte, 512)
	if err := f.Read(3, page); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xA3}, 512)
	putFreeLink(want, 1)
	if !bytes.Equal(page, want) {
		t.Error("a freed page is not its old bytes under the chain link")
	}
	id, err := f.Allocate()
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
// reuse / commit / reopen sequences — some commits cut short right after
// their commit point, at a random write-back write — against an in-memory
// model, and requires every allocated page of every reopened file to equal
// the model.
func TestDiskFileMatchesModel(t *testing.T) {
	const pageSize = 512
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "model.svrdb")
		f := mustOpen(t, path, WithPageSize(pageSize))

		// committed and pending are the model: page contents by ID, nil for a
		// free page (whose bytes are unspecified beyond the link).
		var committed, pending [][]byte
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
			pending = clonePages(committed)
		}

		for step := 0; step < 300; step++ {
			ids := allocated()
			switch op := rng.Intn(20); {
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
			case op < 13: // allocate: recycles a free page when there is one
				var id PageID
				var err error
				n := 1
				if rng.Intn(4) == 0 {
					n = 2 + rng.Intn(2)
					id, err = f.AllocateN(n)
				} else {
					id, err = f.Allocate()
				}
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < n; k++ {
					if int(id)+k == len(pending) {
						pending = append(pending, nil)
					}
					if pending[int(id)+k] != nil {
						t.Fatalf("seed %d: allocation handed out live page %d", seed, int(id)+k)
					}
					pending[int(id)+k] = make([]byte, pageSize)
				}
			case op < 15 && len(ids) > 0: // free
				id := ids[rng.Intn(len(ids))]
				if err := f.Free(PageID(id)); err != nil {
					t.Fatal(err)
				}
				pending[id] = nil
			case op < 18: // commit, sometimes cut short after the commit point
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
			case op < 19: // reopen: the uncommitted window is lost
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
	buf = binary.LittleEndian.AppendUint64(buf, uint64(hdr.freeHead))
	buf = binary.LittleEndian.AppendUint64(buf, hdr.freeCount)
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

// FuzzWALRecord feeds arbitrary bytes to Open as the WAL sidecar of a small
// valid file.  With the bytes as given, Open must fail or land on a committed
// state of that file: the one on disk, or the one the seed record commits.
// With resum set the harness recomputes the trailing checksum first, so that
// mutated entries reach the entry parser and the replay; such a record is a
// commit in its own right, and what must hold is that Open never panics,
// never writes outside the pages the record claims, and never touches the
// data file when it refuses the record.
func FuzzWALRecord(f *testing.F) {
	dir := f.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildTemplate(f, template)
	pre := openImage(f, template)
	post := cleanRun(f, template, filepath.Join(dir, "post.svrdb"), patchScenario)
	crashed := filepath.Join(dir, "crashed.svrdb")
	loggedNotApplied(f, template, crashed, patchScenario)
	valid := readFileBytes(f, WALPath(crashed))
	data := readFileBytes(f, template)

	hdr := header{pageSize: 512, nPages: 4, freeHead: InvalidPageID, lsn: 2, meta: []byte("seed")}
	patched := bytes.Repeat([]byte{0xA1}, 512)
	copy(patched[16:], "xyz")
	f.Add(valid, false)
	f.Add(valid[:len(valid)/2], false) // truncated
	// One run, run count / gap / length, then the bytes: a run that overruns
	// the page, a run count larger than the record, a wrong post-image
	// checksum, and a well-formed third commit.
	f.Add(testRecord(hdr, testDeltaEntry(1, 0, []uint64{1, 500, 100}, make([]byte, 100))), false)
	f.Add(testRecord(hdr, testDeltaEntry(1, 0, []uint64{40, 1, 1}, []byte("x"))), false)
	f.Add(testRecord(hdr, testDeltaEntry(1, 0xDEADBEEF, []uint64{1, 16, 3}, []byte("xyz"))), false)
	f.Add(testRecord(hdr, testDeltaEntry(1, crc32.Checksum(patched, crcTable), []uint64{1, 16, 3}, []byte("xyz"))), false)
	v1 := bytes.Clone(valid)
	copy(v1, "10LAWRVS") // the v1 magic as v1 wrote it
	f.Add(v1, false)
	f.Add(valid, true)

	f.Fuzz(func(t *testing.T, wal []byte, resum bool) {
		if resum {
			if len(wal) < walHeaderSize+4 {
				return
			}
			wal = bytes.Clone(wal)
			metaLen := min(int(binary.LittleEndian.Uint32(wal[44:48])), metaMax, len(wal)-walHeaderSize-4)
			binary.LittleEndian.PutUint32(wal[44:48], uint32(metaLen))
			binary.LittleEndian.PutUint64(wal[52:60], uint64(len(wal)-walHeaderSize-4-metaLen))
			binary.LittleEndian.PutUint32(wal[len(wal)-4:], crc32.Checksum(wal[:len(wal)-4], crcTable))
		}
		work := filepath.Join(t.TempDir(), "fuzz.svrdb")
		if err := os.WriteFile(work, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(work), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		// 512-byte pages, at least 9 bytes per entry: the record cannot have
		// added more pages than this.
		limit := uint64(4 + len(wal)/9)
		file, err := Open(work)
		if err != nil {
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
		if file.NumPages() > limit {
			t.Fatalf("NumPages = %d after replaying %d WAL bytes", file.NumPages(), len(wal))
		}
		if got := uint64(len(readFileBytes(t, work))); got != (file.NumPages()+1)*512 {
			t.Fatalf("data file is %d bytes for %d pages", got, file.NumPages())
		}
		img := snapshotFile(t, file)
		if !resum && !img.equal(pre) && !img.equal(post) {
			// The hand-built seeds carry their own valid checksums; only they
			// may commit a third state.
			if rec, _, err := decodeWALRecord(wal, 512); err != nil || rec == nil || !bytes.Equal(rec.meta, []byte("seed")) {
				t.Fatal("Open landed on a state that is neither committed image")
			}
		}
	})
}
