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
	rng := rand.New(rand.NewSource(1))
	var want []Entry
	doc := DocID(0)
	for i := 0; i < 5000; i++ {
		doc += DocID(rng.Intn(50) + 1)
		want = append(want, Entry{Doc: doc})
	}
	streamIt := openList(t, writeList(t, LayoutID, nil, want), nil, LayoutID)
	if listLen(streamIt) != len(want) {
		t.Fatalf("stream Len = %d, want %d", listLen(streamIt), len(want))
	}
	requireSameEntries(t, want, collectAll(t, streamIt), "id list")
}

func TestStreamScoreListMatchesSliceDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var want []Entry
	score := 1e9
	for i := 0; i < 3000; i++ {
		score -= rng.Float64() * 100
		want = append(want, Entry{Doc: DocID(i), SortKey: score})
	}
	streamIt := openList(t, writeList(t, LayoutScore, nil, want), nil, LayoutScore)
	requireSameEntries(t, want, collectAll(t, streamIt), "score list")
}

func TestStreamChunkedListMatchesSliceDecoder(t *testing.T) {
	for _, withTerm := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		var want []Entry
		chunks := 0
		for cid := int32(40); cid >= 1; cid -= int32(rng.Intn(3) + 1) {
			doc := DocID(0)
			n := rng.Intn(100)
			for i := 0; i < n; i++ {
				doc += DocID(rng.Intn(20) + 1)
				e := Entry{Doc: doc, SortKey: float64(cid)}
				if withTerm {
					e.TermScore = rng.Float32()
				}
				want = append(want, e)
			}
			if n > 0 {
				chunks++
			}
		}
		data := writeList(t, chunkLayout(withTerm), nil, want)
		streamIt := openList(t, data, nil, chunkLayout(withTerm))
		if blobChunks(t, data) != chunks || listLen(streamIt) != len(want) {
			t.Fatalf("header (%d,%d), want (%d,%d)", listLen(streamIt), blobChunks(t, data), len(want), chunks)
		}
		requireSameEntries(t, want, collectAll(t, streamIt), "chunked list")
	}
}

func TestStreamIDTermListMatchesSliceDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var want []Entry
	doc := DocID(0)
	for i := 0; i < 2000; i++ {
		doc += DocID(rng.Intn(9) + 1)
		want = append(want, Entry{Doc: doc, TermScore: rng.Float32()})
	}
	streamIt := openList(t, writeList(t, LayoutIDTerm, nil, want), nil, LayoutIDTerm)
	requireSameEntries(t, want, collectAll(t, streamIt), "id+term list")
}

// streamKind is one way to open a list: the layouts it accepts and the
// score directory it resolves ranks through.
type streamKind struct {
	name    string
	layouts []Layout
	dir     []float64
}

var streamKinds = []streamKind{
	{"id", []Layout{LayoutID}, nil},
	{"id+term", []Layout{LayoutIDTerm}, nil},
	{"score", []Layout{LayoutScore}, fuzzScoreDir},
	{"chunked", []Layout{LayoutChunk, LayoutChunkTerm}, nil},
}

// open opens data as k, reporting the posting count its header records and,
// when the list can seek (the ID layouts), its SeekDoc.
func (k streamKind) open(data []byte) (BatchIterator, int, func(DocID) error, error) {
	it, err := Open(bytes.NewReader(data), k.dir, k.layouts...)
	if err != nil {
		return nil, 0, nil, err
	}
	var seek func(DocID) error
	if s, ok := it.(idList); ok {
		seek = s.SeekDoc
	}
	return it, listLen(it), seek, nil
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
	var es []Entry
	for i := 0; i < 100; i++ {
		es = append(es, Entry{Doc: DocID(i), SortKey: float64(1000 - i)})
	}
	data := writeList(t, LayoutScore, nil, es)
	it, err := Open(bytes.NewReader(data[:len(data)/2]), nil, LayoutScore)
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
		"id":      NewWriter(LayoutID, nil).Bytes(),
		"score":   NewWriter(LayoutScore, nil).Bytes(),
		"chunked": NewWriter(LayoutChunkTerm, nil).Bytes(),
		"id+term": NewWriter(LayoutIDTerm, nil).Bytes(),
	}
	for _, o := range streamKinds {
		for name, data := range map[string][]byte{
			"no magic":        {0x05, 0x01, 0x02, 0x03, 0x04, 0x05},
			"bare magic":      {blockMagic},
			"unknown version": {blockMagic, 0xf0 | byte(LayoutID), 0x00},
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
