package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChunkerBasicAssignment(t *testing.T) {
	scores := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	ch := buildChunker(scores, 4, 2)
	if ch.NumChunks() < 2 {
		t.Fatalf("expected multiple chunks, got %d", ch.NumChunks())
	}
	// Higher scores must never land in lower chunks.
	prev := int32(0)
	for _, s := range scores {
		cid := ch.ChunkOf(s)
		if cid < prev {
			t.Errorf("chunk of %g (%d) below chunk of smaller score (%d)", s, cid, prev)
		}
		prev = cid
	}
}

func TestChunkerBounds(t *testing.T) {
	scores := make([]float64, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range scores {
		scores[i] = rng.Float64() * 100000
	}
	ch := buildChunker(scores, 6.12, 10)
	for _, s := range scores {
		cid := ch.ChunkOf(s)
		if cid < 1 || int(cid) > ch.NumChunks() {
			t.Fatalf("chunk of %g = %d out of range [1,%d]", s, cid, ch.NumChunks())
		}
		if s < ch.LowerBound(cid) || s >= ch.UpperBound(cid) {
			t.Fatalf("score %g not within chunk %d bounds [%g,%g)", s, cid, ch.LowerBound(cid), ch.UpperBound(cid))
		}
	}
	// Top chunk's upper bound must be +Inf, below-range chunk handling sane.
	if !math.IsInf(ch.UpperBound(int32(ch.NumChunks())), 1) {
		t.Error("top chunk upper bound should be +Inf")
	}
	if ch.ChunkOf(-5) != 1 {
		t.Error("negative scores should map to chunk 1")
	}
	if ch.LowerBound(0) != 0 {
		t.Error("LowerBound of clamped chunk should be 0")
	}
	if !math.IsInf(ch.LowerBound(int32(ch.NumChunks())+5), 1) {
		t.Error("LowerBound beyond the top chunk should be +Inf")
	}
}

func TestChunkerMinSize(t *testing.T) {
	// With a large minimum size, all documents collapse into few chunks.
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = float64(i + 1)
	}
	ch := buildChunker(scores, 1.5, 50)
	if ch.NumChunks() > 3 {
		t.Errorf("minimum chunk size not honoured: %d chunks for 100 docs with min 50", ch.NumChunks())
	}
}

func TestChunkerRatioControlsChunkCount(t *testing.T) {
	scores := make([]float64, 2000)
	rng := rand.New(rand.NewSource(2))
	for i := range scores {
		scores[i] = math.Pow(10, rng.Float64()*5) // 1 .. 100000, log-uniform
	}
	small := buildChunker(scores, 1.6, 5)
	large := buildChunker(scores, 100, 5)
	if small.NumChunks() <= large.NumChunks() {
		t.Errorf("smaller ratio should produce more chunks: ratio 1.6 -> %d, ratio 100 -> %d",
			small.NumChunks(), large.NumChunks())
	}
}

func TestChunkerDegenerateInputs(t *testing.T) {
	// All-equal scores: a single chunk.
	ch := buildChunker([]float64{7, 7, 7, 7}, 6, 1)
	if ch.NumChunks() != 1 {
		t.Errorf("equal scores produced %d chunks, want 1", ch.NumChunks())
	}
	// Empty input still yields a usable single chunk covering everything.
	empty := buildChunker(nil, 6, 10)
	if empty.NumChunks() != 1 || empty.ChunkOf(123) != 1 {
		t.Errorf("empty chunker misbehaves: %d chunks", empty.NumChunks())
	}
	// Invalid ratio and min size are clamped rather than panicking.
	clamped := buildChunker([]float64{1, 10, 100}, 0.5, 0)
	if clamped.NumChunks() < 1 {
		t.Error("clamped chunker has no chunks")
	}
}

func TestChunkOfMonotonicProperty(t *testing.T) {
	scores := make([]float64, 500)
	rng := rand.New(rand.NewSource(3))
	for i := range scores {
		scores[i] = rng.Float64() * 100000
	}
	ch := buildChunker(scores, 6.12, 10)
	f := func(a, b float64) bool {
		a = math.Abs(a)
		b = math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		ca, cb := ch.ChunkOf(a), ch.ChunkOf(b)
		if a < b {
			return ca <= cb
		}
		if a > b {
			return ca >= cb
		}
		return ca == cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestThresholdChunk(t *testing.T) {
	if thresholdChunk(3) != 4 {
		t.Errorf("thresholdChunk(3) = %d, want 4", thresholdChunk(3))
	}
}
