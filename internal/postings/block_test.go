package postings

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"svrdb/internal/codec"
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// Property tests: every layout must decode to exactly the postings its
// builder was fed, under every list shape the builders accept — including
// sizes straddling the block capacity, dense runs, sparse runs,
// dictionary-friendly and dictionary-busting term weights, and scores
// inside and outside the score directory.

// collectAll drains a BatchIterator through odd-sized batches so block
// boundaries and batch boundaries interleave.
func collectAll(t *testing.T, it BatchIterator) []Entry {
	t.Helper()
	var out []Entry
	buf := make([]Entry, 37)
	for {
		n, err := it.NextBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func requireSameEntries(t *testing.T, want, got []Entry, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// listSizes exercises empty, single, one-below/at/above block capacity and
// multi-block lists.
var listSizes = []int{0, 1, 2, blockCap - 1, blockCap, blockCap + 1, 1000, 4096}

func genDocs(rng *rand.Rand, n int, dense bool) []DocID {
	docs := make([]DocID, n)
	doc := DocID(rng.Intn(100))
	for i := range docs {
		if dense {
			doc += DocID(rng.Intn(2) + 1)
		} else {
			doc += DocID(rng.Intn(5000) + 1)
		}
		docs[i] = doc
	}
	return docs
}

// idEntries is the entry stream an ID or ID+term list of (docs, ws) must
// decode to; ws is nil for the plain ID layout.
func idEntries(docs []DocID, ws []float32) []Entry {
	want := make([]Entry, len(docs))
	for i, d := range docs {
		want[i] = Entry{Doc: d}
		if ws != nil {
			want[i].TermScore = ws[i]
		}
	}
	return want
}

func TestBlockIDListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range listSizes {
		for _, dense := range []bool{true, false} {
			docs := genDocs(rng, size, dense)
			b := NewBlockIDListBuilder()
			for _, d := range docs {
				if err := b.Add(d); err != nil {
					t.Fatal(err)
				}
			}
			if b.Len() != len(docs) {
				t.Fatalf("Len = %d, want %d", b.Len(), len(docs))
			}
			it, err := NewStreamIDList(bytes.NewReader(b.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if it.Len() != len(docs) {
				t.Fatalf("stream Len = %d, want %d", it.Len(), len(docs))
			}
			requireSameEntries(t, idEntries(docs, nil), collectAll(t, it), "id list")
		}
	}
}

func genWeights(rng *rand.Rand, n int, dictFriendly bool) []float32 {
	ws := make([]float32, n)
	for i := range ws {
		if dictFriendly {
			ws[i] = float32(rng.Intn(5)+1) / 200
		} else {
			ws[i] = rng.Float32()
		}
	}
	return ws
}

func TestBlockIDTermListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range listSizes {
		for _, dictFriendly := range []bool{true, false} {
			docs := genDocs(rng, size, false)
			ws := genWeights(rng, size, dictFriendly)
			b := NewBlockIDTermListBuilder()
			for i, d := range docs {
				if err := b.Add(d, ws[i]); err != nil {
					t.Fatal(err)
				}
			}
			it, err := NewStreamIDTermList(bytes.NewReader(b.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			requireSameEntries(t, idEntries(docs, ws), collectAll(t, it), "id+term list")
		}
	}
}

// genScorePostings produces (doc, score) pairs in descending score order
// with doc-ascending ties, drawing most scores from the directory pool and
// a fraction from outside it (the raw-float fallback path).
func genScorePostings(rng *rand.Rand, n int, pool []float64) ([]DocID, []float64) {
	scores := make([]float64, n)
	for i := range scores {
		if rng.Intn(10) == 0 {
			scores[i] = rng.Float64() * 1e6
		} else {
			scores[i] = pool[rng.Intn(len(pool))]
		}
	}
	// Descending scores; assign ascending docs within a run of equal scores.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && scores[j] > scores[j-1]; j-- {
			scores[j], scores[j-1] = scores[j-1], scores[j]
		}
	}
	docs := make([]DocID, n)
	doc := DocID(0)
	for i := range docs {
		doc += DocID(rng.Intn(100) + 1)
		docs[i] = doc
	}
	return docs, scores
}

func scorePool(rng *rand.Rand, n int) []float64 {
	pool := make([]float64, n)
	for i := range pool {
		pool[i] = float64(rng.Intn(100000)) + rng.Float64()
	}
	return pool
}

// scoreEntries is the entry stream a score list of (docs, scores) must
// decode to.
func scoreEntries(docs []DocID, scores []float64) []Entry {
	want := make([]Entry, len(docs))
	for i := range docs {
		want[i] = Entry{Doc: docs[i], SortKey: scores[i]}
	}
	return want
}

// buildScoreList encodes (docs, scores) against dir.
func buildScoreList(t *testing.T, dir []float64, docs []DocID, scores []float64) []byte {
	t.Helper()
	b := NewBlockScoreListBuilder(dir)
	for i := range docs {
		if err := b.Add(docs[i], scores[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func TestBlockScoreListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool := scorePool(rng, 500)
	dir := BuildScoreDir(pool)
	for _, size := range listSizes {
		docs, scores := genScorePostings(rng, size, pool)
		it, err := NewStreamScoreListDir(bytes.NewReader(buildScoreList(t, dir, docs, scores)), dir)
		if err != nil {
			t.Fatal(err)
		}
		requireSameEntries(t, scoreEntries(docs, scores), collectAll(t, it), "score list")
	}
}

type testChunk struct {
	cid   int32
	posts []ChunkPosting
}

func genChunks(rng *rand.Rand, totalPostings int, withTerm bool) []testChunk {
	var chunks []testChunk
	cid := int32(1 << 20)
	left := totalPostings
	for left > 0 {
		n := rng.Intn(3*blockCap) + 1
		if n > left {
			n = left
		}
		left -= n
		cid -= int32(rng.Intn(50) + 1)
		posts := make([]ChunkPosting, n)
		doc := DocID(rng.Intn(1000))
		for i := range posts {
			doc += DocID(rng.Intn(100) + 1)
			posts[i] = ChunkPosting{Doc: doc}
			if withTerm {
				posts[i].TermScore = float32(rng.Intn(6)+1) / 200
			}
		}
		chunks = append(chunks, testChunk{cid: cid, posts: posts})
	}
	return chunks
}

// chunkEntries is the entry stream a chunked list of chunks must decode to.
func chunkEntries(chunks []testChunk) []Entry {
	var want []Entry
	for _, c := range chunks {
		for _, p := range c.posts {
			want = append(want, Entry{Doc: p.Doc, CID: c.cid, SortKey: float64(c.cid), TermScore: p.TermScore})
		}
	}
	return want
}

func TestBlockChunkedListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, size := range listSizes {
		for _, withTerm := range []bool{false, true} {
			chunks := genChunks(rng, size, withTerm)
			b := NewBlockChunkedListBuilder(withTerm)
			for _, c := range chunks {
				if err := b.AddChunk(c.cid, c.posts); err != nil {
					t.Fatal(err)
				}
			}
			if b.Len() != size || b.Chunks() != len(chunks) {
				t.Fatalf("Len/Chunks = %d/%d, want %d/%d", b.Len(), b.Chunks(), size, len(chunks))
			}
			it, err := NewStreamChunkedList(bytes.NewReader(b.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if it.NumChunks() != len(chunks) {
				t.Fatalf("NumChunks = %d, want %d", it.NumChunks(), len(chunks))
			}
			requireSameEntries(t, chunkEntries(chunks), collectAll(t, it), "chunked list")
		}
	}
}

// TestBlockCombinatorsOverCompressed drives the combinators with
// stream-decoded blobs on one side and the in-memory postings they were
// built from on the other and requires identical output — the hot read
// paths must not be able to tell a decoded list from the slice it encodes.
func TestBlockCombinatorsOverCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pool := scorePool(rng, 200)
	dir := BuildScoreDir(pool)

	const k = 5
	var (
		lists [][]Entry
		blobs [][]byte
	)
	for s := 0; s < k; s++ {
		docs, scores := genScorePostings(rng, 700+rng.Intn(600), pool)
		lists = append(lists, scoreEntries(docs, scores))
		blobs = append(blobs, buildScoreList(t, dir, docs, scores))
	}

	slices := func() []BatchIterator {
		its := make([]BatchIterator, k)
		for i, l := range lists {
			its[i] = NewSliceIterator(l)
		}
		return its
	}
	streams := func() []BatchIterator {
		its := make([]BatchIterator, k)
		for i, b := range blobs {
			it, err := NewStreamScoreListDir(bytes.NewReader(b), dir)
			if err != nil {
				t.Fatal(err)
			}
			its[i] = it
		}
		return its
	}

	t.Run("union+collapse", func(t *testing.T) {
		for i := 1; i < k; i++ {
			want := collectAll(t, NewOverlay(slices()[i-1], slices()[i]))
			got := collectAll(t, NewOverlay(streams()[i-1], streams()[i]))
			requireSameEntries(t, want, got, "overlay")
		}
	})

	t.Run("group-merger", func(t *testing.T) {
		for need := 1; need <= k; need++ {
			sameGroups(t, "groups", drainMerge(t, NewMerge(need, streams()...)), drainMerge(t, NewMerge(need, slices()...)))
		}
	})
}

// TestBlockSeekModel checks SeekDoc, the one seek (a conjunctive merge
// leapfrogs the ID family's lists with it), against a model: seeking to a
// random target and draining must equal linearly scanning the full list and
// dropping entries until the seek predicate holds.  The score and chunk layouts have no seek; their legs
// check a full decode of a list of the same size against the model.
func TestBlockSeekModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	t.Run("id", func(t *testing.T) {
		docs := genDocs(rng, 3000, false)
		b := NewBlockIDListBuilder()
		for _, d := range docs {
			if err := b.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		data := b.Bytes()
		full, err := NewStreamIDList(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		all := collectAll(t, full)
		for trial := 0; trial < 50; trial++ {
			target := DocID(rng.Int63n(int64(docs[len(docs)-1]) + 1000))
			it, err := NewStreamIDList(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := it.SeekDoc(target); err != nil {
				t.Fatal(err)
			}
			var want []Entry
			for _, e := range all {
				if e.Doc >= target {
					want = append(want, e)
				}
			}
			requireSameEntries(t, want, collectAll(t, it), "seek id")
		}
		// Monotone multi-seek on one iterator — the leapfrog access
		// pattern — modeled step for step against the in-memory slice.
		it, err := NewStreamIDList(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var one [1]Entry
		target := DocID(0)
		pos := 0
		steps := 0
		for {
			target += DocID(rng.Int63n(2000) + 1)
			if err := it.SeekDoc(target); err != nil {
				t.Fatal(err)
			}
			n, err := it.NextBatch(one[:])
			if err != nil {
				t.Fatal(err)
			}
			for pos < len(all) && all[pos].Doc < target {
				pos++
			}
			if pos >= len(all) {
				if n != 0 {
					t.Fatalf("walk returned %+v past the model's end", one[0])
				}
				break
			}
			if n == 0 {
				t.Fatalf("walk ended early; model expects %+v", all[pos])
			}
			if one[0] != all[pos] {
				t.Fatalf("walk step = %+v, want %+v", one[0], all[pos])
			}
			target = one[0].Doc
			pos++
			steps++
		}
		if steps == 0 {
			t.Fatal("monotone seek walk returned nothing")
		}
	})

	t.Run("score", func(t *testing.T) {
		pool := scorePool(rng, 300)
		dir := BuildScoreDir(pool)
		docs, scores := genScorePostings(rng, 3000, pool)
		it, err := NewStreamScoreListDir(bytes.NewReader(buildScoreList(t, dir, docs, scores)), dir)
		if err != nil {
			t.Fatal(err)
		}
		requireSameEntries(t, scoreEntries(docs, scores), collectAll(t, it), "score list")
	})

	t.Run("chunk", func(t *testing.T) {
		chunks := genChunks(rng, 3000, true)
		b := NewBlockChunkedListBuilder(true)
		for _, c := range chunks {
			if err := b.AddChunk(c.cid, c.posts); err != nil {
				t.Fatal(err)
			}
		}
		it, err := NewStreamChunkedList(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		requireSameEntries(t, chunkEntries(chunks), collectAll(t, it), "chunked list")
	})
}

// TestBlockSeekSkipsPages proves the point of the skip header on a real
// blob: seeking deep into a long compressed list must fault in far fewer
// pages than scanning to the same position.
func TestBlockSeekSkipsPages(t *testing.T) {
	pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 256)
	store := blob.NewStore(pool)

	rng := rand.New(rand.NewSource(29))
	b := NewBlockIDListBuilder()
	d := DocID(0)
	for i := 0; i < 200000; i++ {
		d += DocID(rng.Intn(6000) + 1)
		if err := b.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := store.Put(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	target := d - 1000

	scanReader := store.NewReader(ref)
	scan, err := NewStreamIDList(scanReader)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Entry, BatchSize)
	for {
		n, err := scan.NextBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || buf[n-1].Doc >= target {
			break
		}
	}
	scanPages := scanReader.PagesRead()

	seekReader := store.NewReader(ref)
	seek, err := NewStreamIDList(seekReader)
	if err != nil {
		t.Fatal(err)
	}
	if err := seek.SeekDoc(target); err != nil {
		t.Fatal(err)
	}
	if n, err := seek.NextBatch(buf); err != nil || n == 0 || buf[0].Doc < target {
		t.Fatalf("seek landed wrong: n=%d err=%v", n, err)
	}
	seekPages := seekReader.PagesRead()

	if scanPages < 4 {
		t.Fatalf("scan touched only %d pages; list too small for the test to mean anything", scanPages)
	}
	if seekPages*2 >= scanPages {
		t.Fatalf("seek read %d pages vs %d for a scan; skip headers are not skipping", seekPages, scanPages)
	}
}

// hostileBodyLenBlob is an ID list of 5 postings whose one block header
// claims a body of 2^63+5 bytes, which as an int is negative.
func hostileBodyLenBlob() []byte {
	blob := []byte{blockMagic, blockVersion<<4 | layoutID, 5}
	blob = append(blob, 5, 1, 10, 20) // super-block: n, first, span, byteLen
	blob = append(blob, 5, 1, 10)     // block: n, first, span
	blob = codec.PutUvarint(blob, 1<<63+5)
	return append(blob, make([]byte, 40-len(blob))...)
}

// TestBlockHeaderRejectsHostileLengths feeds frame lengths no builder
// emits — blobs carry no checksum, so a rotted page reaches the decoder —
// and requires ErrCorrupt, not a slice panic, on the scan and seek paths.
func TestBlockHeaderRejectsHostileLengths(t *testing.T) {
	oversizeBody := []byte{blockMagic, blockVersion<<4 | layoutID, 5, 5, 1, 10, 20, 5, 1, 10}
	oversizeBody = codec.PutUvarint(oversizeBody, streamBlockSize+1)
	for name, data := range map[string][]byte{
		"negative body length": hostileBodyLenBlob(),
		"body beyond a page":   oversizeBody,
	} {
		scan, err := NewStreamIDList(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if _, err := scan.NextBatch(make([]Entry, 8)); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: NextBatch error %v, want ErrCorrupt", name, err)
		}
		seek, err := NewStreamIDList(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if err := seek.SeekDoc(5); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: SeekDoc error %v, want ErrCorrupt", name, err)
		}
	}

	// A reader that knows its length bounds a super-block by what is left.
	pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 8)
	store := blob.NewStore(pool)
	b := NewBlockIDListBuilder()
	for d := DocID(1); d <= 300; d++ {
		if err := b.Add(d * 3); err != nil {
			t.Fatal(err)
		}
	}
	data := b.Bytes()
	ref, err := store.Put(data[:len(data)-10])
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewStreamIDList(store.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	if err := short.SeekDoc(1 << 40); !errors.Is(err, codec.ErrCorrupt) {
		t.Errorf("super-block longer than its blob: SeekDoc error %v, want ErrCorrupt", err)
	}
}
