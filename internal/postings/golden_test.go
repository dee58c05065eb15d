package postings

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// TestBlockBytesUnchanged pins the posting-block format byte for byte: each
// fixed list below is encoded by the Writer and its blob must hash to the
// SHA-256 recorded from the per-layout encoders the Writer replaced.
// The cases cover every layout's empty list, a single posting, a list of a
// few thousand postings and one of more than superFan blocks (a super-block
// boundary crossed), score directories that miss half the scores (raw
// escapes) and single-posting chunks.  A change here is a format change:
// bump blockVersion instead of re-recording.
func TestBlockBytesUnchanged(t *testing.T) {
	want := map[string]string{
		"ID/empty":        "3b2125cc14ebed262533a307512a75f3dd9fff48389ed9a513966e2341fe3620", // 3 bytes
		"ID/one":          "c2548b10b0d587407754cdf08a808db434133416589c902e30fa9813cb4783e0", // 12 bytes
		"ID/mixed":        "4d6c6e95d09f02f97dda5568472f1693dd2dcef3cf68ecdeaf4ea32e2a66da3d", // 12426 bytes
		"ID/super":        "97fcbdb1b2c56e2605bbe0922a4c5082d7fbc8b03d8804cd9eca15cdf2eeff82", // 172181 bytes
		"IDTerm/empty":    "9c756c25331a1f5ff13ccfd1a88fcc299e31565eb82ef911e7f9661c13ca81e2", // 3 bytes
		"IDTerm/one":      "7d8834feada837a06a721f595b9b793d98f267910b22e12551c068f06d2b2cbc", // 17 bytes
		"IDTerm/mixed":    "4090ed5ae373200262b4e8d0dd7de81350404bb2737874fe7253411ae77cb842", // 20985 bytes
		"IDTerm/super":    "dbea446bdcf50edf84b6cb4046bb2cf2a5182df4e1379a5c1ff41c90de7c8035", // 288953 bytes
		"Score/empty":     "d32ffb8015729f7796d15a8a11ff8f6c93623e8a9c858afbcc320c7e2feeac7c", // 3 bytes
		"Score/one":       "99512dcacf1a7b8d70d4e3708444434bad4e741455ba30a88123e98ea91aec7b", // 13 bytes
		"Score/mixed":     "25286239bc3f683b1ec3ba6e8d493affb177065cbeaf05ad07d73d4a832fb260", // 20350 bytes
		"Score/super":     "d073ac684e3b429c945bb7d856648c46db679b69ad23a307985c01c57eda7980", // 271769 bytes
		"Chunk/empty":     "43f546957dbb486973153fda6064f5d8df41d392daf83b14c5ac05baea644d0a", // 4 bytes
		"Chunk/one":       "6ac1caa8edabddaebcc3e5972bad7b92d62987069a99005cc1e8d6b6213d99ec", // 19 bytes
		"Chunk/mixed":     "dd7d34663109edfb0610a3f60582b9dd5c2cd1d99559f1f6677060956165ac7e", // 12413 bytes
		"Chunk/super":     "5cab51517d8bcb28a9eae2f68dbff239ce42e9bfe8f3bebf890b44cec58bb009", // 161557 bytes
		"ChunkTerm/empty": "32ae6354030f33d85cf0a9907440356aa71ebea9131c8f3cdc7de5f19f5c2da7", // 4 bytes
		"ChunkTerm/one":   "8bae4158ca9282784ac5bb68bb5cf60f700a8bb7ba4b02a4898d035e594318c3", // 24 bytes
		"ChunkTerm/mixed": "e1f1990fa71be97d4ca365e051d4759bba631dc9e8e8699677aa3e074bae5ca3", // 20741 bytes
		"ChunkTerm/super": "110786ea4f16db16ffaff8f0d8fa7edf53e8a1090a51630fa8e1879bd9afa46e", // 281132 bytes
	}
	layouts := map[string]Layout{"ID": LayoutID, "IDTerm": LayoutIDTerm, "Score": LayoutScore, "Chunk": LayoutChunk, "ChunkTerm": LayoutChunkTerm}
	for _, c := range goldenCases() {
		data := writeList(t, layouts[c.layout], c.dir, c.entries)
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[c.name] {
			t.Errorf("%s: %d bytes hashing to %s, want %s", c.name, len(data), got, want[c.name])
		}
		got := collectAll(t, openList(t, data, c.dir, layouts[c.layout]))
		requireSameEntries(t, c.entries, got, c.name)
	}
}

// goldenCase is one fixed list TestBlockBytesUnchanged encodes.
type goldenCase struct {
	name    string
	layout  string // "ID", "IDTerm", "Score", "Chunk" or "ChunkTerm"
	dir     []float64
	entries []Entry // in list order; SortKey is the score or the chunk ID
}

// goldenLayouts names the five long-list layouts in tag order.
var goldenLayouts = []string{"ID", "IDTerm", "Score", "Chunk", "ChunkTerm"}

// goldenCases returns, per layout, an empty list, a one-posting list, a
// list of a few thousand postings and one of more than superFan blocks.
// Every score list has a directory that holds only every other distinct
// score, so half its scores are raw escapes, and every chunked list mixes
// single-posting chunks with long ones.
func goldenCases() []goldenCase {
	var out []goldenCase
	for li, layout := range goldenLayouts {
		for ci, c := range []struct {
			name string
			n    int
		}{{"empty", 0}, {"one", 1}, {"mixed", 3000}, {"super", 40000}} {
			es, dir := goldenEntries(layout, c.n, int64(100*li+ci+1))
			out = append(out, goldenCase{name: layout + "/" + c.name, layout: layout, dir: dir, entries: es})
		}
	}
	return out
}

// goldenEntries generates n postings in the list order of layout from seed.
func goldenEntries(layout string, n int, seed int64) ([]Entry, []float64) {
	rng := rand.New(rand.NewSource(seed))
	withTerm := layout == "IDTerm" || layout == "ChunkTerm"
	weight := func(i int) float32 {
		if (i/300)%2 == 0 {
			return float32(rng.Intn(5)+1) / 8 // a block's dictionary holds these
		}
		return rng.Float32() // too many distinct values: raw weights
	}
	gap := func() DocID {
		switch r := rng.Intn(100); {
		case r < 90:
			return DocID(rng.Intn(8) + 1)
		case r < 99:
			return DocID(rng.Intn(1<<20) + 1)
		default:
			return DocID(rng.Int63n(1<<40) + 1)
		}
	}
	es := make([]Entry, 0, n)
	var dir []float64
	switch layout {
	case "ID", "IDTerm":
		doc := DocID(rng.Intn(50))
		for i := 0; i < n; i++ {
			es = append(es, Entry{Doc: doc})
			doc += gap()
		}
	case "Score":
		score := float64(rng.Intn(1 << 20))
		doc := DocID(rng.Intn(50))
		var distinct []float64
		for i := 0; i < n; i++ {
			if i == 0 || rng.Intn(4) == 0 {
				score -= float64(rng.Intn(1000)+1) / 4
				doc = DocID(rng.Intn(50))
				distinct = append(distinct, score)
			}
			es = append(es, Entry{Doc: doc, SortKey: score})
			doc += gap()
		}
		var half []float64
		for i := 0; i < len(distinct); i += 2 {
			half = append(half, distinct[i])
		}
		dir = BuildScoreDir(half)
	case "Chunk", "ChunkTerm":
		cid := int32(1000 + rng.Intn(100))
		for len(es) < n {
			size := 1
			if rng.Intn(3) != 0 {
				size = rng.Intn(400) + 1
			}
			doc := DocID(rng.Intn(50))
			for j := 0; j < size && len(es) < n; j++ {
				es = append(es, Entry{Doc: doc, SortKey: float64(cid)})
				doc += gap()
			}
			cid -= int32(rng.Intn(3) + 1)
		}
	}
	if withTerm {
		for i := range es {
			es[i].TermScore = weight(i)
		}
	}
	return es, dir
}
