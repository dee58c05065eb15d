package index

import "sort"

// chunker assigns documents to chunks based on the score distribution at
// build time, following §4.3.2: chunk boundaries are chosen so that the
// lowest score of chunk i+1 is roughly chunkRatio times the lowest score of
// chunk i, subject to a minimum number of documents per chunk (the paper
// uses 100) so that very skewed distributions do not produce tiny chunks.
//
// Chunks are numbered 1..NumChunks from lowest to highest scores; documents
// in higher-numbered chunks have (originally) higher scores, matching the
// paper's "documents in higher chunks always have higher scores than
// documents in lower chunks".
type chunker struct {
	// lower[i] is the lower-bound score of chunk i+1 (0-based slice); lower[0]
	// is always 0 so every non-negative score lands in some chunk.
	lower []float64
}

// buildChunker derives chunk boundaries from the build-time scores.
func buildChunker(scores []float64, ratio float64, minSize int) *chunker {
	if ratio <= 1 {
		ratio = 1.0001
	}
	if minSize < 1 {
		minSize = 1
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)

	lower := []float64{0}
	i := 0
	n := len(sorted)
	for i < n {
		// The lowest positive score in the current chunk determines the next
		// boundary; all-zero prefixes use 1 as the base so the geometric
		// progression can start.
		base := sorted[i]
		if base <= 0 {
			base = 1
		}
		nextBound := base * ratio
		j := sort.SearchFloat64s(sorted, nextBound)
		if j < i+minSize {
			j = i + minSize
		}
		if j >= n {
			break
		}
		bound := sorted[j]
		if bound <= lower[len(lower)-1] {
			// Duplicate scores straddling the boundary: push the boundary to
			// the next strictly larger score.
			for j < n && sorted[j] <= lower[len(lower)-1] {
				j++
			}
			if j >= n {
				break
			}
			bound = sorted[j]
		}
		lower = append(lower, bound)
		i = j
	}
	return &chunker{lower: lower}
}

// NumChunks reports the number of chunks.
func (c *chunker) NumChunks() int { return len(c.lower) }

// ChunkOf returns the chunk ID (1-based) that holds the given score.
// Negative scores map to chunk 1.
func (c *chunker) ChunkOf(score float64) int32 {
	// Find the last boundary <= score.
	lo, hi := 0, len(c.lower)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.lower[mid] <= score {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < 1 {
		lo = 1
	}
	return int32(lo)
}

// thresholdChunk is the Chunk-method threshold function of §4.3.2:
// thresholdValueOf(c) = c + 1, meaning a document's short-list postings are
// rewritten only when its score climbs at least two chunks above its list
// chunk.
func thresholdChunk(cid int32) int32 { return cid + 1 }
