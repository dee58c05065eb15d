package postings

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"svrdb/internal/codec"
)

// Every stream decoder runs against the slice of postings its blob was built
// from: the decoding must agree with it posting for posting.

func TestStreamIDListMatchesSliceDecoder(t *testing.T) {
	b := NewBlockIDListBuilder()
	rng := rand.New(rand.NewSource(1))
	var want []Entry
	doc := DocID(0)
	for i := 0; i < 5000; i++ {
		doc += DocID(rng.Intn(50) + 1)
		if err := b.Add(doc); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Doc: doc})
	}
	streamIt, err := NewStreamIDList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if streamIt.Len() != len(want) {
		t.Fatalf("stream Len = %d, want %d", streamIt.Len(), len(want))
	}
	requireSameEntries(t, want, collectAll(t, streamIt), "id list")
}

func TestStreamScoreListMatchesSliceDecoder(t *testing.T) {
	b := NewBlockScoreListBuilder(nil)
	rng := rand.New(rand.NewSource(2))
	var want []Entry
	score := 1e9
	for i := 0; i < 3000; i++ {
		score -= rng.Float64() * 100
		if err := b.Add(DocID(i), score); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Doc: DocID(i), SortKey: score})
	}
	streamIt, err := NewStreamScoreList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireSameEntries(t, want, collectAll(t, streamIt), "score list")
}

func TestStreamChunkedListMatchesSliceDecoder(t *testing.T) {
	for _, withTerm := range []bool{false, true} {
		b := NewBlockChunkedListBuilder(withTerm)
		rng := rand.New(rand.NewSource(3))
		var chunks []testChunk
		for cid := int32(40); cid >= 1; cid -= int32(rng.Intn(3) + 1) {
			var posts []ChunkPosting
			doc := DocID(0)
			for i := 0; i < rng.Intn(100); i++ {
				doc += DocID(rng.Intn(20) + 1)
				p := ChunkPosting{Doc: doc}
				if withTerm {
					p.TermScore = rng.Float32()
				}
				posts = append(posts, p)
			}
			if err := b.AddChunk(cid, posts); err != nil {
				t.Fatal(err)
			}
			if len(posts) > 0 {
				chunks = append(chunks, testChunk{cid: cid, posts: posts})
			}
		}
		want := chunkEntries(chunks)
		streamIt, err := NewStreamChunkedList(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if streamIt.NumChunks() != len(chunks) || streamIt.Len() != len(want) {
			t.Fatalf("header (%d,%d), want (%d,%d)", streamIt.Len(), streamIt.NumChunks(), len(want), len(chunks))
		}
		requireSameEntries(t, want, collectAll(t, streamIt), "chunked list")
	}
}

func TestStreamIDTermListMatchesSliceDecoder(t *testing.T) {
	b := NewBlockIDTermListBuilder()
	rng := rand.New(rand.NewSource(4))
	var want []Entry
	doc := DocID(0)
	for i := 0; i < 2000; i++ {
		doc += DocID(rng.Intn(9) + 1)
		w := rng.Float32()
		if err := b.Add(doc, w); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Doc: doc, TermScore: w})
	}
	streamIt, err := NewStreamIDTermList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireSameEntries(t, want, collectAll(t, streamIt), "id+term list")
}

// streamKind is one stream constructor with its seek behind one signature.
type streamKind struct {
	name string
	open func(data []byte) (BatchIterator, int, func(target int64) error, error)
	// sought reports whether e may be the first entry after a seek to target.
	sought func(e Entry, target int64) bool
}

var streamKinds = []streamKind{
	{"id", func(d []byte) (BatchIterator, int, func(int64) error, error) {
		s, err := NewStreamIDList(bytes.NewReader(d))
		if err != nil {
			return nil, 0, nil, err
		}
		return s, s.Len(), func(t int64) error { return s.SeekDoc(DocID(t)) }, nil
	}, func(e Entry, t int64) bool { return e.Doc >= DocID(t) }},
	{"id+term", func(d []byte) (BatchIterator, int, func(int64) error, error) {
		s, err := NewStreamIDTermList(bytes.NewReader(d))
		if err != nil {
			return nil, 0, nil, err
		}
		return s, s.Len(), func(t int64) error { return s.SeekDoc(DocID(t)) }, nil
	}, func(e Entry, t int64) bool { return e.Doc >= DocID(t) }},
	{"score", func(d []byte) (BatchIterator, int, func(int64) error, error) {
		s, err := NewStreamScoreListDir(bytes.NewReader(d), fuzzScoreDir)
		if err != nil {
			return nil, 0, nil, err
		}
		return s, s.Len(), func(t int64) error { return s.SeekScoreLE(float64(t)) }, nil
	}, func(e Entry, t int64) bool { return e.SortKey <= float64(t) }},
	{"chunked", func(d []byte) (BatchIterator, int, func(int64) error, error) {
		s, err := NewStreamChunkedList(bytes.NewReader(d))
		if err != nil {
			return nil, 0, nil, err
		}
		return s, s.Len(), func(t int64) error { return s.SeekChunkLE(int32(t)) }, nil
	}, func(e Entry, t int64) bool { return e.CID <= int32(t) }},
}

func TestStreamDecodersOnEmptyInput(t *testing.T) {
	for _, o := range streamKinds {
		it, _, _, err := o.open(nil)
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if got := collectAll(t, it); len(got) != 0 {
			t.Errorf("empty stream %s list yielded %d postings", o.name, len(got))
		}
	}
}

func TestStreamDecodersOnTruncatedInput(t *testing.T) {
	b := NewBlockScoreListBuilder(nil)
	for i := 0; i < 100; i++ {
		if err := b.Add(DocID(i), float64(1000-i)); err != nil {
			t.Fatal(err)
		}
	}
	data := b.Bytes()
	it, err := NewStreamScoreList(bytes.NewReader(data[:len(data)/2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectBatched(it); !errors.Is(err, codec.ErrCorrupt) {
		t.Errorf("truncated score list decoded with error %v, want ErrCorrupt", err)
	}
}

// TestStreamDecodersRefuseForeignBlobs opens blobs that are not a block list
// of the constructor's layout: no magic byte, a magic byte and nothing else,
// an unknown version, and each valid layout under every other constructor.
func TestStreamDecodersRefuseForeignBlobs(t *testing.T) {
	valid := map[string][]byte{
		"id":      NewBlockIDListBuilder().Bytes(),
		"score":   NewBlockScoreListBuilder(nil).Bytes(),
		"chunked": NewBlockChunkedListBuilder(true).Bytes(),
		"id+term": NewBlockIDTermListBuilder().Bytes(),
	}
	for _, o := range streamKinds {
		for name, data := range map[string][]byte{
			"no magic":        {0x05, 0x01, 0x02, 0x03, 0x04, 0x05},
			"bare magic":      {blockMagic},
			"unknown version": {blockMagic, 0xf0 | layoutID, 0x00},
			"unknown layout":  {blockMagic, blockVersion<<4 | 0x0f, 0x00},
		} {
			if _, _, _, err := o.open(data); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("%s over %s blob: error %v, want ErrCorrupt", o.name, name, err)
			}
		}
		for layout, data := range valid {
			_, _, _, err := o.open(data)
			if layout == o.name && err != nil {
				t.Errorf("%s over its own layout: %v", o.name, err)
			}
			if layout != o.name && !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("%s over a %s blob: error %v, want ErrCorrupt", o.name, layout, err)
			}
		}
	}
}
