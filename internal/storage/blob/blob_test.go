package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

func newStore(t testing.TB, pageSize, poolPages int) *Store {
	t.Helper()
	f := pagefile.MustNewMem(pageSize)
	return NewStore(buffer.MustNew(f, poolPages))
}

func TestPutReadAllRoundTrip(t *testing.T) {
	s := newStore(t, 256, 16)
	sizes := []int{1, 255, 256, 257, 1000, 4096}
	for _, n := range sizes {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		ref, err := s.Put(data)
		if err != nil {
			t.Fatalf("Put(%d bytes): %v", n, err)
		}
		got, err := s.ReadAll(ref)
		if err != nil {
			t.Fatalf("ReadAll(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip of %d bytes corrupted data", n)
		}
	}
}

func TestEmptyBlob(t *testing.T) {
	s := newStore(t, 256, 4)
	ref, err := s.Put(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Length != 0 || ref.PageSpan(256) != 0 {
		t.Errorf("empty blob ref = %+v", ref)
	}
	data, err := s.ReadAll(ref)
	if err != nil || len(data) != 0 {
		t.Errorf("ReadAll of empty blob = %d bytes, %v", len(data), err)
	}
}

func TestPageSpan(t *testing.T) {
	cases := []struct {
		offset uint32
		length uint64
		want   uint64
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 256, 1}, {0, 257, 2}, {0, 512, 2}, {0, 513, 3},
		{100, 0, 0}, {100, 1, 1}, {100, 156, 1}, {255, 1, 1}, {255, 2, 2}, {200, 313, 3},
	}
	for _, c := range cases {
		ref := Ref{Offset: c.offset, Length: c.length}
		if got := ref.PageSpan(256); got != c.want {
			t.Errorf("PageSpan(offset %d, length %d) = %d, want %d", c.offset, c.length, got, c.want)
		}
	}
}

func TestReaderStreamsPageAtATime(t *testing.T) {
	s := newStore(t, 256, 64)
	data := make([]byte, 256*10)
	rand.New(rand.NewSource(1)).Read(data)
	ref, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}

	r := s.NewReader(ref)
	// Reading only the first 100 bytes should touch exactly one page.
	buf := make([]byte, 100)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if r.PagesRead() != 1 {
		t.Errorf("PagesRead after partial read = %d, want 1", r.PagesRead())
	}
	if !bytes.Equal(buf, data[:100]) {
		t.Error("partial read returned wrong bytes")
	}

	// Reading the rest touches the remaining pages.
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, data[100:]) {
		t.Error("remaining read returned wrong bytes")
	}
	if r.PagesRead() != 10 {
		t.Errorf("PagesRead after full read = %d, want 10", r.PagesRead())
	}
}

func TestReaderEarlyTerminationSavesPages(t *testing.T) {
	s := newStore(t, 256, 64)
	data := make([]byte, 256*100)
	ref, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	s.Pool().ResetStats()
	r := s.NewReader(ref)
	buf := make([]byte, 256*3)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if got := s.Pool().Stats().Misses; got > 4 {
		t.Errorf("early-terminated read missed %d pages, want <= 4 of 100", got)
	}
}

func TestSkip(t *testing.T) {
	s := newStore(t, 128, 64)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	ref, _ := s.Put(data)
	r := s.NewReader(ref)
	if err := r.Skip(512); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := r.Read(one[:]); err != nil {
		t.Fatal(err)
	}
	if want := byte(512 % 256); one[0] != want {
		t.Errorf("byte after skip = %d, want %d", one[0], want)
	}
	if err := r.Skip(2000); err == nil {
		t.Error("Skip past end succeeded, want error")
	}
	if err := r.Skip(486); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 1 {
		t.Errorf("Remaining = %d, want 1", r.Remaining())
	}
	if err := r.Skip(5); err == nil {
		t.Error("Skip past end succeeded, want error")
	}
}

func TestMultipleBlobsDoNotOverlap(t *testing.T) {
	s := newStore(t, 256, 64)
	blobs := make([][]byte, 20)
	refs := make([]Ref, 20)
	rng := rand.New(rand.NewSource(9))
	for i := range blobs {
		blobs[i] = make([]byte, rng.Intn(2000)+1)
		rng.Read(blobs[i])
		ref, err := s.Put(blobs[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	for i := range blobs {
		got, err := s.ReadAll(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Errorf("blob %d corrupted", i)
		}
	}
}

// checkPacked packs blobs of the given sizes through one packer and checks
// every way of reading them back: whole and after Skip, that no read
// reaches past a blob into its neighbour, that a blob that fits in a page
// stays on one page, and that a cold read misses exactly PageSpan pages.
func checkPacked(t *testing.T, pageSize int, sizes []int, rng *rand.Rand) {
	t.Helper()
	s := newStore(t, pageSize, 4*len(sizes)+8)
	p := s.NewPacker()
	blobs := make([][]byte, len(sizes))
	refs := make([]Ref, len(sizes))
	for i, n := range sizes {
		blobs[i] = make([]byte, n)
		rng.Read(blobs[i])
		ref, err := p.Put(blobs[i])
		if err != nil {
			t.Fatalf("Put(%d bytes): %v", n, err)
		}
		refs[i] = ref
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	type span struct{ lo, hi uint64 }
	var spans []span
	for i, ref := range refs {
		n := uint64(sizes[i])
		switch {
		case n == 0:
			continue
		case n <= uint64(pageSize) && ref.PageSpan(pageSize) != 1:
			t.Fatalf("blob %d (%d bytes, %+v) straddles a page boundary", i, n, ref)
		case n > uint64(pageSize) && ref.Offset != 0:
			t.Fatalf("blob %d (%d bytes, %+v) is longer than a page but not page-aligned", i, n, ref)
		}
		lo := uint64(ref.FirstPage)*uint64(pageSize) + uint64(ref.Offset)
		spans = append(spans, span{lo, lo + n})
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("packed blobs overlap: %v and %v", spans[i-1], spans[i])
		}
	}

	for i, ref := range refs {
		data, n := blobs[i], ref.Length
		if err := s.Pool().EvictAll(); err != nil {
			t.Fatal(err)
		}
		s.Pool().ResetStats()
		r := s.NewReader(ref)
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("blob %d (%+v): Read returned %d bytes, %v; want its %d bytes", i, ref, len(got), err, len(data))
		}
		if misses := s.Pool().Stats().Misses; misses != ref.PageSpan(pageSize) {
			t.Errorf("blob %d (%+v): cold read missed %d pages, PageSpan says %d", i, ref, misses, ref.PageSpan(pageSize))
		}
		if n > 0 && n <= uint64(pageSize) && r.PagesRead() != 1 {
			t.Errorf("blob %d (%+v): sub-page blob read %d pages, want 1", i, ref, r.PagesRead())
		}

		k := uint64(0)
		if n > 0 {
			k = uint64(rng.Int63n(int64(n) + 1))
		}
		r = s.NewReader(ref)
		if err := r.Skip(k); err != nil {
			t.Fatalf("blob %d: Skip(%d): %v", i, k, err)
		}
		if got, err := io.ReadAll(r); err != nil || !bytes.Equal(got, data[k:]) {
			t.Errorf("blob %d (%+v): Skip(%d)+Read = %d bytes, %v", i, ref, k, len(got), err)
		}

		// Nothing past Length: not a neighbour's byte, not a page's padding.
		r = s.NewReader(ref)
		if err := r.Skip(n + 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("blob %d: Skip(Length+1) = %v, want ErrOutOfRange", i, err)
		}
		if r.Remaining() != n {
			t.Errorf("blob %d: Remaining after a refused Skip = %d, want %d", i, r.Remaining(), n)
		}
		if err := r.Skip(n); err != nil {
			t.Fatal(err)
		}
		if err := r.Skip(math.MaxUint64); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("blob %d: Skip(MaxUint64) at Length = %v, want ErrOutOfRange", i, err)
		}
		if got, err := r.Read(make([]byte, pageSize)); got != 0 || err != io.EOF {
			t.Errorf("blob %d: Read at Length = %d bytes, %v; want 0, io.EOF", i, got, err)
		}
	}
}

// TestPackedBlobs packs random blob sizes, from empty to three pages,
// through one packer and reads every blob back every way a reader can.
func TestPackedBlobs(t *testing.T) {
	const pageSize = 64
	edges := []int{0, 1, pageSize - 1, pageSize, pageSize + 1, 2 * pageSize, 3 * pageSize, 32, 32, 7, 0, 57}
	rng := rand.New(rand.NewSource(26))
	checkPacked(t, pageSize, edges, rng)
	for round := 0; round < 20; round++ {
		sizes := make([]int, 1+rng.Intn(40))
		for i := range sizes {
			if rng.Intn(4) == 0 {
				sizes[i] = rng.Intn(3*pageSize + 1)
			} else {
				sizes[i] = rng.Intn(pageSize/2 + 1)
			}
		}
		checkPacked(t, pageSize, sizes, rng)
	}

	// Sub-page blobs share pages: the packed file holds far fewer pages than
	// one page per blob would take.
	s := newStore(t, pageSize, 16)
	p := s.NewPacker()
	for i := 0; i < 64; i++ {
		if _, err := p.Put(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	const want = (64 + 5) / 6 // six 10-byte blobs to a 64-byte page
	if got := s.Pool().File().NumPages(); got != want {
		t.Errorf("64 blobs of 10 bytes on %d-byte pages took %d pages, want %d", pageSize, got, want)
	}
}

// FuzzPackedBlobs packs the blob sizes the input spells out (two bytes per
// blob, each size from 0 to three pages) and checks them as TestPackedBlobs
// does.
func FuzzPackedBlobs(f *testing.F) {
	f.Add([]byte{0, 1, 0, 63, 0, 64, 0, 65, 0, 192, 0, 0, 0, 10, 0, 54})
	f.Add([]byte{0, 30, 0, 30, 0, 5, 0, 150, 0, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		const pageSize = 64
		var sizes []int
		for i := 0; i+1 < len(in) && len(sizes) < 64; i += 2 {
			sizes = append(sizes, int(binary.BigEndian.Uint16(in[i:]))%(3*pageSize+1))
		}
		checkPacked(t, pageSize, sizes, rand.New(rand.NewSource(int64(len(in)))))
	})
}
