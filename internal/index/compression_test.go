package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"svrdb/internal/text"
)

// Tests for the posting-block encoding at the index level: every method
// must answer every query as the brute-force oracle does over long lists
// dense enough to fill posting blocks, through updates, merges and
// checkpoint restores — and the encoding must actually earn its keep (ratio
// gate).

// compressionCorpus generates a corpus dense enough that every term has a
// long list spanning hundreds of documents (so posting blocks fill up and
// the bitpacked gap encoding is exercised, not just block headers).
func compressionCorpus(nDocs, vocabSize, docLen int, seed int64) *testCorpus {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, vocabSize)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%02d", i)
	}
	c := newTestCorpus()
	for i := 0; i < nDocs; i++ {
		words := make([]string, 0, docLen)
		for j := 0; j < docLen; j++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		c.add(DocID(i+1), float64(rng.Intn(100000))+rng.Float64(), strings.Join(words, " "))
	}
	return c
}

// checkAgainstOracle runs q and requires the oracle's scores, rank by rank.
func checkAgainstOracle(t *testing.T, label string, m Method, o *oracle, q Query) {
	t.Helper()
	res, err := m.TopK(q)
	if err != nil {
		t.Fatalf("%s: TopK: %v", label, err)
	}
	if !q.WithTermScores {
		checkTopKScores(t, label, res.Results, o.topK(q.Terms, q.K, q.Disjunctive))
		return
	}
	// The collection statistics are the method's own: the ID- and
	// Chunk-ordered methods do not take a deleted document's terms out of
	// their document frequencies, which is not what this test is about.
	numDocs, df, err := m.TermStats(q.Terms)
	if err != nil {
		t.Fatalf("%s: TermStats: %v", label, err)
	}
	idfs := map[string]float64{}
	for i, term := range q.Terms {
		idfs[term] = text.IDF(text.CollectionStats{NumDocs: numDocs}, df[i])
	}
	want := o.topKCombined(q.Terms, idfs, q.K, q.Disjunctive)
	if len(res.Results) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(res.Results), len(want))
	}
	for i := range want {
		if diff := res.Results[i].Score - want[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: result %d score %.8f, want %.8f", label, i, res.Results[i].Score, want[i])
		}
	}
}

func TestCompressedIndexMatchesOracle(t *testing.T) {
	const nDocs = 400
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := compressionCorpus(nDocs, 12, 9, 71)
			cfg := newTestConfig(t)
			m, err := ctor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Build(corpus, corpus.scoreFunc()); err != nil {
				t.Fatalf("Build: %v", err)
			}
			o := newOracle(corpus)

			withTS := name == "ID-TermScore" || name == "Chunk-TermScore"
			rng := rand.New(rand.NewSource(29))
			runQueries := func(stage string, m Method) {
				for q := 0; q < 12; q++ {
					n := rng.Intn(3) + 1
					terms := make([]string, 0, n)
					for j := 0; j < n; j++ {
						terms = append(terms, fmt.Sprintf("term%02d", rng.Intn(12)))
					}
					query := Query{
						Terms:          terms,
						K:              rng.Intn(20) + 1,
						Disjunctive:    rng.Intn(2) == 0,
						WithTermScores: withTS && rng.Intn(2) == 0,
					}
					checkAgainstOracle(t, fmt.Sprintf("%s %s %v", name, stage, query), m, o, query)
				}
			}
			runQueries("after build", m)

			// One update batch: score changes, an insert, a delete and a
			// content rewrite, so the combined short+long streams and the
			// stale-copy resolution both run over block-encoded long lists.
			inserted := strings.Fields("term00 term03 term07 term03")
			rewritten := strings.Fields("term01 term05 term05 term09")
			batch := []Update{
				{Op: InsertOp, Doc: DocID(nDocs + 1), Tokens: inserted, Score: 91000},
				{Op: DeleteOp, Doc: 17},
				{Op: ContentOp, Doc: 23, OldTokens: corpus.docs[23], NewTokens: rewritten},
			}
			o.setTokens(DocID(nDocs+1), inserted)
			o.scores[DocID(nDocs+1)] = 91000
			o.deleted[17] = true
			o.setTokens(23, rewritten)
			for u := 0; u < 120; u++ {
				up := Update{Op: ScoreOp, Doc: DocID(rng.Intn(nDocs) + 1), Score: float64(rng.Intn(200000))}
				// A deleted doc cannot take further updates.
				if up.Doc == 17 {
					continue
				}
				batch = append(batch, up)
				o.scores[up.Doc] = up.Score
			}
			// The source holds the batch's content, as a base table would.
			corpus.docs[DocID(nDocs+1)] = inserted
			corpus.docs[23] = rewritten
			if err := m.ApplyUpdates(batch); err != nil {
				t.Fatalf("ApplyUpdates: %v", err)
			}
			runQueries("after updates", m)

			// The offline merge rebuilds the long lists.
			if err := m.MergeShortLists(); err != nil {
				t.Fatalf("MergeShortLists: %v", err)
			}
			runQueries("after merge", m)

			// Checkpoint round-trip: the restored method reads the same blobs
			// (and, for Score-Threshold, the persisted score directory).
			restored, err := Restore(cfg, m.State())
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			restored.SetSource(corpus)
			runQueries("after restore", restored)
		})
	}
}

func TestCompressionRatioGate(t *testing.T) {
	// Long lists of several hundred postings each; the blob-backed methods
	// must compress their fixed-width footprint at least 2x.  The Score
	// method keeps postings in B+-tree leaves and is exempt.
	corpus := compressionCorpus(2000, 25, 10, 5)
	for name, ctor := range allConstructors() {
		if name == "Score" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := newTestConfig(t)
			cfg.MinChunkSize = 100
			m, err := ctor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Build(corpus, corpus.scoreFunc()); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.LongListRawBytes == 0 || st.LongListBytes == 0 {
				t.Fatalf("stats missing byte counts: raw %d stored %d", st.LongListRawBytes, st.LongListBytes)
			}
			ratio := float64(st.LongListRawBytes) / float64(st.LongListBytes)
			t.Logf("%s: raw %d B, stored %d B, ratio %.2fx", name, st.LongListRawBytes, st.LongListBytes, ratio)
			if ratio < 2 {
				t.Errorf("%s compression ratio %.2fx < 2x (raw %d B, stored %d B)", name, ratio, st.LongListRawBytes, st.LongListBytes)
			}
		})
	}
}
