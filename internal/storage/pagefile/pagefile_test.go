package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestMemAllocateReadWrite(t *testing.T) {
	f := MustNewMem(256)
	id, err := f.Allocate(InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Errorf("first page ID = %d, want 0", id)
	}
	src := bytes.Repeat([]byte{0x5A}, 256)
	if err := f.Write(id, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 256)
	if err := f.Read(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("read back page does not match written data")
	}
}

func TestBadPageSize(t *testing.T) {
	if _, err := NewMem(0); err == nil {
		t.Error("NewMem(0) succeeded, want error")
	}
	if _, err := NewMem(-1); err == nil {
		t.Error("NewMem(-1) succeeded, want error")
	}
}

func TestOutOfRange(t *testing.T) {
	f := MustNewMem(128)
	buf := make([]byte, 128)
	if err := f.Read(0, buf); err == nil {
		t.Error("Read of unallocated page succeeded, want error")
	}
	if err := f.Write(5, buf); err == nil {
		t.Error("Write of unallocated page succeeded, want error")
	}
}

func TestShortBuffers(t *testing.T) {
	f := MustNewMem(128)
	id, _ := f.Allocate(InvalidPageID)
	small := make([]byte, 64)
	if err := f.Read(id, small); err == nil {
		t.Error("Read into short buffer succeeded, want error")
	}
	if err := f.Write(id, small); err == nil {
		t.Error("Write from short buffer succeeded, want error")
	}
}

func TestAllocateN(t *testing.T) {
	f := MustNewMem(128)
	first, err := f.AllocateN(10)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Errorf("first = %d, want 0", first)
	}
	if f.NumPages() != 10 {
		t.Errorf("NumPages = %d, want 10", f.NumPages())
	}
	if _, err := f.AllocateN(0); err == nil {
		t.Error("AllocateN(0) succeeded, want error")
	}
}

func TestStatsCounting(t *testing.T) {
	f := MustNewMem(128)
	id, _ := f.Allocate(InvalidPageID)
	buf := make([]byte, 128)
	for i := 0; i < 3; i++ {
		if err := f.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := f.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Reads != 5 || s.Writes != 3 || s.Allocs != 1 {
		t.Errorf("Stats = %+v, want 5 reads, 3 writes, 1 alloc", s)
	}
	if s.BytesRead != 5*128 || s.BytesWritten != 3*128 {
		t.Errorf("byte counters = %+v", s)
	}
	f.ResetStats()
	s = f.Stats()
	if s.Reads != 0 || s.Writes != 0 {
		t.Errorf("counters not reset: %+v", s)
	}
	if s.Allocs != 1 {
		t.Errorf("Allocs reset to %d, want preserved 1", s.Allocs)
	}
}

func TestSizeBytes(t *testing.T) {
	f := MustNewMem(256)
	if _, err := f.AllocateN(4); err != nil {
		t.Fatal(err)
	}
	if got := f.SizeBytes(); got != 1024 {
		t.Errorf("SizeBytes = %d, want 1024", got)
	}
}

func TestDiskBackedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Allocate(InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{7}, 512)
	if err := f.Write(id, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("root")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen — no explicit page size: it comes from the header — and verify
	// the committed page and meta survived.
	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.PageSize() != 512 {
		t.Fatalf("reopened PageSize = %d, want 512", f2.PageSize())
	}
	if f2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d, want 1", f2.NumPages())
	}
	dst := make([]byte, 512)
	if err := f2.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("reopened page contents differ")
	}
	if got := f2.Meta(); !bytes.Equal(got, []byte("root")) {
		t.Errorf("reopened Meta = %q, want %q", got, "root")
	}
}

func TestUncommittedWritesLostOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Allocate(InvalidPageID)
	if err := f.Write(a, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(nil); err != nil {
		t.Fatal(err)
	}
	// Second page allocated and written but never committed.
	b, _ := f.Allocate(InvalidPageID)
	if err := f.Write(b, bytes.Repeat([]byte{2}, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 1 {
		t.Errorf("reopened NumPages = %d, want only the 1 committed page", f2.NumPages())
	}
}

func TestOpenRejectsMisalignedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(InvalidPageID); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(path, WithPageSize(1024)); err == nil {
		t.Error("Open with mismatched page size succeeded, want error")
	}
}

func TestFreeListReuse(t *testing.T) {
	f := MustNewMem(256)
	ids := make([]PageID, 4)
	for i := range ids {
		id, err := f.Allocate(InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Dirty page 2, free it, and check the next Allocate hands it back zeroed.
	if err := f.Write(ids[2], bytes.Repeat([]byte{0xAB}, 256)); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	if got := f.FreePages(); got != 1 {
		t.Fatalf("FreePages = %d, want 1", got)
	}
	before := f.NumPages()
	id, err := f.Allocate(InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[2] {
		t.Errorf("Allocate after Free = page %d, want recycled page %d", id, ids[2])
	}
	if f.NumPages() != before {
		t.Errorf("NumPages grew from %d to %d despite free list", before, f.NumPages())
	}
	dst := make([]byte, 256)
	if err := f.Read(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, 256)) {
		t.Error("recycled page was not zeroed")
	}
	st := f.Stats()
	if st.Frees != 1 || st.Reuses != 1 {
		t.Errorf("Stats Frees=%d Reuses=%d, want 1 and 1", st.Frees, st.Reuses)
	}
}

func TestFreeRejectsBadPages(t *testing.T) {
	f := MustNewMem(256)
	id, err := f.Allocate(InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Free(PageID(99)); err == nil {
		t.Error("Free of unallocated page succeeded, want error")
	}
	if err := f.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(id); err == nil {
		t.Error("double Free succeeded, want error")
	}
}

func TestFreeListDiskBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, _ := f.Allocate(InvalidPageID)
	b, _ := f.Allocate(InvalidPageID)
	if err := f.Write(a, bytes.Repeat([]byte{0x7F}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(a); err != nil {
		t.Fatal(err)
	}
	id, err := f.Allocate(InvalidPageID)
	if err != nil {
		t.Fatal(err)
	}
	if id != a {
		t.Errorf("disk-backed Allocate after Free = %d, want %d", id, a)
	}
	dst := make([]byte, 512)
	if err := f.Read(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, 512)) {
		t.Error("recycled disk page was not zeroed")
	}
	_ = b
}

// TestAllocateNReusesFreedRuns covers the run recycler on both backings: a
// contiguous run freed out of the middle of the file (the shape a dropped
// index's blobs leave behind) must satisfy the next AllocateN of that size
// without growing the file, zeroed, and — on the durable backing — the
// pages still free after a commit and reopen are free again once Reclaim
// names the live ones.
func TestAllocateNReusesFreedRuns(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		f := MustNewMem(256)
		first, err := f.AllocateN(10)
		if err != nil {
			t.Fatal(err)
		}
		// Free pages 3..6 in ascending order (slot-adjacent run), plus two
		// scattered singles the run scan must skip over.
		if err := f.Free(first + 8); err != nil {
			t.Fatal(err)
		}
		for i := 3; i <= 6; i++ {
			if err := f.Free(first + PageID(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Free(first + 0); err != nil {
			t.Fatal(err)
		}
		before := f.NumPages()
		run, err := f.AllocateN(4)
		if err != nil {
			t.Fatal(err)
		}
		if run != first+3 {
			t.Errorf("AllocateN(4) = page %d, want recycled run start %d", run, first+3)
		}
		if f.NumPages() != before {
			t.Errorf("NumPages grew from %d to %d despite a matching free run", before, f.NumPages())
		}
		if got := f.FreePages(); got != 2 {
			t.Errorf("FreePages after run reuse = %d, want the 2 scattered singles", got)
		}
		dst := make([]byte, 256)
		for i := 0; i < 4; i++ {
			if err := f.Read(run+PageID(i), dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, make([]byte, 256)) {
				t.Errorf("recycled run page %d was not zeroed", i)
			}
		}
		// No run of 3 remains: AllocateN must grow the file, not corrupt the
		// free list trying.
		if _, err := f.AllocateN(3); err != nil {
			t.Fatal(err)
		}
		if f.NumPages() != before+3 {
			t.Errorf("NumPages = %d, want %d (no run of 3 was free)", f.NumPages(), before+3)
		}
	})

	t.Run("disk", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "pages.db")
		f, err := Open(path, WithPageSize(512))
		if err != nil {
			t.Fatal(err)
		}
		first, err := f.AllocateN(10)
		if err != nil {
			t.Fatal(err)
		}
		// Free singles around a 4-page run so the splice point is mid-chain.
		for _, off := range []PageID{9, 3, 4, 5, 6, 1} {
			if err := f.Free(first + off); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Commit(nil); err != nil {
			t.Fatal(err)
		}
		run, err := f.AllocateN(4)
		if err != nil {
			t.Fatal(err)
		}
		if run != first+3 {
			t.Errorf("disk AllocateN(4) = page %d, want recycled run start %d", run, first+3)
		}
		if st := f.Stats(); st.Reuses < 4 {
			t.Errorf("Stats Reuses = %d, want >= 4 after run reuse", st.Reuses)
		}
		if err := f.Commit(nil); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen rebuilds the free list from the live pages, and the two
		// surviving singles must both be reusable.
		re, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after run reuse: %v", err)
		}
		defer re.Close()
		reclaimAllBut(t, re, first+9, first+1)
		if got := re.FreePages(); got != 2 {
			t.Fatalf("FreePages after reopen = %d, want 2", got)
		}
		got := map[PageID]bool{}
		for i := 0; i < 2; i++ {
			id, err := re.Allocate(InvalidPageID)
			if err != nil {
				t.Fatal(err)
			}
			got[id] = true
		}
		if !got[first+9] || !got[first+1] {
			t.Errorf("reopened free list handed out %v, want the surviving singles %d and %d", got, first+9, first+1)
		}
		if re.NumPages() != f.NumPages() {
			t.Errorf("NumPages after reopen = %d, want %d", re.NumPages(), f.NumPages())
		}
	})
}

// TestAllocatePrefersAPage covers Allocate's rule on both backings: a free
// preferred page is spliced out of the middle of the free stack, a preferred
// page that is not free yields the oldest free page, and no preference the
// most recently freed one.  On the durable backing a reopen forgets the
// free stack, and Reclaim rebuilds it lowest page on top.
func TestAllocatePrefersAPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	backings := map[string]func(t *testing.T) File{
		"mem":  func(t *testing.T) File { return MustNewMem(512) },
		"disk": func(t *testing.T) File { return mustOpen(t, path, WithPageSize(512)) },
	}
	for name, open := range backings {
		t.Run(name, func(t *testing.T) {
			f := open(t)
			defer func() { f.Close() }()
			if _, err := f.AllocateN(8); err != nil {
				t.Fatal(err)
			}
			for _, id := range []PageID{1, 3, 5, 7} { // stack 1 3 5 7, top last
				if err := f.Free(id); err != nil {
					t.Fatal(err)
				}
			}
			for _, step := range []struct{ prefer, want PageID }{
				{3, 3},             // free: spliced out of the middle
				{2, 1},             // live: the oldest free page
				{InvalidPageID, 7}, // none: the top
			} {
				got, err := f.Allocate(step.prefer)
				if err != nil {
					t.Fatal(err)
				}
				if got != step.want {
					t.Errorf("Allocate(%d) = page %d, want %d", step.prefer, got, step.want)
				}
			}
			if st := f.Stats(); st.Reuses != 3 || st.PreferredReuses != 1 {
				t.Errorf("Reuses = %d, PreferredReuses = %d; want 3 and 1", st.Reuses, st.PreferredReuses)
			}
			if err := f.Free(6); err != nil { // stack 5 6
				t.Fatal(err)
			}
			if name == "mem" {
				return
			}
			if err := f.Commit(nil); err != nil {
				t.Fatal(err)
			}
			f.Close()
			f = mustOpen(t, path)
			reclaimAllBut(t, f, 5, 6)
			for _, want := range []PageID{5, 6} {
				if got, err := f.Allocate(InvalidPageID); err != nil || got != want {
					t.Errorf("after reopen Allocate() = page %d, %v; want %d", got, err, want)
				}
			}
		})
	}
}

// TestReservedPagesAreSkipped covers the reservation rule on both backings:
// an allocation that asked for a page which is not free takes the oldest
// unreserved free page and never a reserved one, growing the file when
// every free page is reserved; an allocation without preference, and
// AllocateN, take an unreserved page first but a reserved one before they
// grow the file; an allocation drops the reservation of the page it asked
// for and of the page it hands out; Release drops one.  On the durable
// backing the reservations do not survive a reopen.
func TestReservedPagesAreSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	backings := map[string]func(t *testing.T) File{
		"mem":  func(t *testing.T) File { return MustNewMem(512) },
		"disk": func(t *testing.T) File { return mustOpen(t, path, WithPageSize(512)) },
	}
	for name, open := range backings {
		t.Run(name, func(t *testing.T) {
			f := open(t)
			defer func() { f.Close() }()
			if _, err := f.AllocateN(12); err != nil {
				t.Fatal(err)
			}
			free := func(ids ...PageID) {
				t.Helper()
				for _, id := range ids {
					if err := f.Free(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			reserved := func(want uint64) {
				t.Helper()
				if got := f.Stats().ReservedPages; got != want {
					t.Errorf("ReservedPages = %d, want %d", got, want)
				}
			}
			alloc := func(prefer, want PageID) {
				t.Helper()
				got, err := f.Allocate(prefer)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("Allocate(%d) = page %d, want %d", prefer, got, want)
				}
			}
			free(1, 3, 5, 7) // stack 1 3 5 7, top last
			f.Reserve(1)
			f.Reserve(7)
			f.Reserve(2) // live: a predecessor its epoch still holds
			reserved(3)
			alloc(2, 3)             // 2 is not free: the oldest unreserved page, not 1
			alloc(InvalidPageID, 5) // the top unreserved page, not 7
			reserved(2)             // asking for 2 dropped its reservation
			alloc(4, 12)            // every free page reserved: grow
			alloc(7, 7)             // asked for: a reserved page is its own node's
			reserved(1)
			alloc(InvalidPageID, 1) // no unreserved page: a reserved one before growth
			reserved(0)
			alloc(InvalidPageID, 13)
			st := f.Stats()
			if st.PreferredReuses != 1 || st.PreferMisses != 1 || st.PreferGrows != 1 || st.ReservedTaken != 1 {
				t.Errorf("PreferredReuses %d, PreferMisses %d, PreferGrows %d, ReservedTaken %d; want 1 each",
					st.PreferredReuses, st.PreferMisses, st.PreferGrows, st.ReservedTaken)
			}
			if st.Unpreferred != 12+3 {
				t.Errorf("Unpreferred = %d, want 15 (AllocateN's 12, three Allocate(InvalidPageID))", st.Unpreferred)
			}

			// AllocateN: a run without a reserved page first, then one with.
			free(8, 9, 10, 4, 6, 11) // stack 8 9 10 4 6 11; one run of three, 8-10
			f.Reserve(9)
			f.Reserve(6)
			f.Reserve(11)
			if got, err := f.AllocateN(1); err != nil || got != 4 {
				t.Errorf("AllocateN(1) = page %d, %v; want 4, the top unreserved page", got, err)
			}
			// Reserved 9 splits 8-10: every run of two holds a reserved page.
			if got, err := f.AllocateN(2); err != nil || got != 8 {
				t.Errorf("AllocateN(2) = page %d, %v; want 8, a run with a reserved page before growth", got, err)
			}
			reserved(2)
			f.Release(6)
			reserved(1)
			if got, err := f.AllocateN(1); err != nil || got != 6 {
				t.Errorf("AllocateN(1) = page %d, %v; want 6, released", got, err)
			}
			if f.NumPages() != 14 {
				t.Errorf("NumPages = %d, want 14: nothing here needed to grow", f.NumPages())
			}
			if name == "mem" {
				return
			}
			if err := f.Commit(nil); err != nil {
				t.Fatal(err)
			}
			f.Close()
			f = mustOpen(t, path)
			reserved(0)
			reclaimAllBut(t, f, 10, 11)
			for _, want := range []PageID{10, 11} {
				if got, err := f.Allocate(InvalidPageID); err != nil || got != want {
					t.Errorf("after reopen Allocate() = page %d, %v; want %d", got, err, want)
				}
			}
		})
	}
}

// reclaimAllBut rebuilds f's free list as a caller does after opening it:
// every page is live but free.
func reclaimAllBut(t testing.TB, f File, free ...PageID) {
	t.Helper()
	var live []PageID
	for id := PageID(0); uint64(id) < f.NumPages(); id++ {
		if !slices.Contains(free, id) {
			live = append(live, id)
		}
	}
	if err := f.Reclaim(live); err != nil {
		t.Fatal(err)
	}
}

// TestOlderFormatRefused: a data file whose header carries an older format
// version — version 2 persisted the free list — is refused at Open with the
// version error, not taken for a torn header, and left as it was.
func TestOlderFormatRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.svrdb")
	f := mustOpen(t, path, WithPageSize(512))
	if _, err := f.Allocate(InvalidPageID); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data := readFileBytes(t, path)
	binary.LittleEndian.PutUint32(data[8:12], 2)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version 2 not supported") {
		t.Fatalf("Open of a version-2 file = %v, want the version error", err)
	}
	if !bytes.Equal(readFileBytes(t, path), data) {
		t.Error("refusing the file changed it")
	}
}
