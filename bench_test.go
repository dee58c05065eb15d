// Package svrdb_test holds the top-level testing.B benchmarks, one per table
// and figure of the paper's evaluation.  Each benchmark isolates the core
// operation the corresponding experiment measures (a score update, a top-k
// query, a document insertion, ...) against a pre-built index at a small,
// laptop-friendly scale.
//
// The full parameter sweeps that regenerate the papers' tables row by row —
// including the cold-cache methodology — live in internal/bench and are run
// with cmd/svrbench (-list prints the experiment index); CHANGES.md records
// before/after numbers and ARCHITECTURE.md maps the layers under test.
package svrdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"svrdb/internal/bench"
	"svrdb/internal/codec"
	"svrdb/internal/core"
	"svrdb/internal/index"
	"svrdb/internal/postings"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

// benchScale keeps the shared corpus small enough for `go test -bench=.`.
var benchParams = workload.Params{
	NumDocs:     2000,
	TermsPerDoc: 120,
	VocabSize:   6000,
	TermZipf:    1.0, // see workload.DefaultParams: preserves query selectivity at reduced scale
	ScoreMax:    100000,
	ScoreZipf:   0.75,
	Seed:        1,
}

var (
	corpusOnce  sync.Once
	benchCorpus *workload.Corpus
	benchQs     [][]string
	benchUpds   []workload.ScoreUpdate
)

func sharedCorpus() (*workload.Corpus, [][]string, []workload.ScoreUpdate) {
	corpusOnce.Do(func() {
		benchCorpus = workload.Generate(benchParams)
		benchQs = workload.GenerateQueries(benchCorpus, workload.QueryParams{
			Class: workload.Unselective, TermsPerQuery: 2, NumQueries: 64, Seed: 7,
		})
		up := workload.DefaultUpdateParams()
		up.NumUpdates = 20000
		benchUpds = workload.GenerateUpdates(benchCorpus, up)
	})
	return benchCorpus, benchQs, benchUpds
}

func buildBenchIndex(b *testing.B, kind string, cfg index.Config) index.Method {
	b.Helper()
	corpus, _, _ := sharedCorpus()
	pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 8192)
	cfg.Pool = pool
	m, err := index.New(kind, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Build(corpus, corpus.ScoreFunc()); err != nil {
		b.Fatal(err)
	}
	return m
}

func benchQueries(b *testing.B, m index.Method, k int, disjunctive, withTermScores bool) {
	b.Helper()
	_, queries, _ := sharedCorpus()
	b.ResetTimer()
	postingsScanned := 0
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		res, err := m.TopK(index.Query{Terms: q, K: k, Disjunctive: disjunctive, WithTermScores: withTermScores})
		if err != nil {
			b.Fatal(err)
		}
		postingsScanned += res.PostingsScanned
	}
	b.ReportMetric(float64(postingsScanned)/float64(b.N), "postings/query")
}

// updateScore applies one trace entry as a one-op batch: ApplyUpdates is the
// index's only incremental write.
func updateScore(m index.Method, u workload.ScoreUpdate) error {
	return m.ApplyUpdates([]index.Update{{Op: index.ScoreOp, Doc: u.Doc, Score: u.NewScore}})
}

func benchUpdates(b *testing.B, m index.Method) {
	b.Helper()
	_, _, updates := sharedCorpus()
	patchesBefore := m.Stats().TablePatches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := updateScore(m, updates[i%len(updates)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Guard the in-place patch fast path: the metric makes a silent fallback
	// to full leaf rewrites visible in every update benchmark run.
	b.ReportMetric(float64(m.Stats().TablePatches-patchesBefore)/float64(b.N), "patches/op")
}

// BenchmarkTable1_BuildLongLists measures the bulk build that produces the
// long inverted lists whose sizes Table 1 reports; the size is attached as a
// custom metric.
func BenchmarkTable1_BuildLongLists(b *testing.B) {
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk", "ID-TermScore", "Chunk-TermScore"} {
		b.Run(kind, func(b *testing.B) {
			var size uint64
			for i := 0; i < b.N; i++ {
				m := buildBenchIndex(b, kind, index.Config{})
				size = m.Stats().LongListBytes
			}
			b.ReportMetric(float64(size)/(1024*1024), "MB")
		})
	}
}

// BenchmarkTable2_ChunkRatio measures the two sides of the Table 2 tradeoff
// (score-update cost and query cost) for several chunk ratios.
func BenchmarkTable2_ChunkRatio(b *testing.B) {
	for _, ratio := range []float64{164.84, 21.48, 6.12, 1.56} {
		m := buildBenchIndex(b, "Chunk", index.Config{ChunkRatio: ratio, MinChunkSize: 20})
		b.Run(fmt.Sprintf("update/ratio=%.2f", ratio), func(b *testing.B) { benchUpdates(b, m) })
		b.Run(fmt.Sprintf("query/ratio=%.2f", ratio), func(b *testing.B) { benchQueries(b, m, 10, false, false) })
	}
}

// BenchmarkFigure7_ScoreUpdate measures the per-update cost of every
// SVR-only method (the update side of Figure 7).
func BenchmarkFigure7_ScoreUpdate(b *testing.B) {
	for _, kind := range []string{"ID", "Score", "Score-Threshold", "Chunk"} {
		b.Run(kind, func(b *testing.B) {
			m := buildBenchIndex(b, kind, index.Config{MinChunkSize: 20})
			benchUpdates(b, m)
		})
	}
}

// BenchmarkFigure7_Query measures the query cost of every SVR-only method
// after a burst of score updates (the query side of Figure 7).
func BenchmarkFigure7_Query(b *testing.B) {
	_, _, updates := sharedCorpus()
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk"} {
		b.Run(kind, func(b *testing.B) {
			m := buildBenchIndex(b, kind, index.Config{MinChunkSize: 20})
			for _, u := range updates[:4000] {
				if err := updateScore(m, u); err != nil {
					b.Fatal(err)
				}
			}
			benchQueries(b, m, 10, false, false)
		})
	}
}

// BenchmarkFigure8_VaryK measures query cost as k grows for the ID and Chunk
// methods (Figure 8).
func BenchmarkFigure8_VaryK(b *testing.B) {
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk"} {
		m := buildBenchIndex(b, kind, index.Config{MinChunkSize: 20})
		for _, k := range []int{1, 10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/k=%d", kind, k), func(b *testing.B) { benchQueries(b, m, k, false, false) })
		}
	}
}

// BenchmarkStepSweep_ChunkUpdate measures the update cost of the Chunk
// method under increasing mean update steps (§5.3.4); larger steps push more
// documents across two chunk boundaries and hence into the short lists.
func BenchmarkStepSweep_ChunkUpdate(b *testing.B) {
	corpus, _, _ := sharedCorpus()
	for _, step := range []float64{100, 1000, 10000} {
		up := workload.DefaultUpdateParams()
		up.NumUpdates = 20000
		up.MeanStep = step
		up.Seed = int64(step)
		trace := workload.GenerateUpdates(corpus, up)
		b.Run(fmt.Sprintf("step=%.0f", step), func(b *testing.B) {
			m := buildBenchIndex(b, "Chunk", index.Config{MinChunkSize: 20})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := updateScore(m, trace[i%len(trace)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// updateBatchSize is the batch size the batched write benchmarks use; one
// ApplyUpdates call per this many trace entries.
const updateBatchSize = 256

// BenchmarkUpdateThroughput compares the write pipeline's two shapes on the
// same score-update trace: the one-at-a-time loop (one-op batches) against
// batches of updateBatchSize.  The per-op times divide out to throughput; the
// batched path amortizes B+-tree descents and leaf rewrites across each
// batch.
func BenchmarkUpdateThroughput(b *testing.B) {
	_, _, updates := sharedCorpus()
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk", "Chunk-TermScore"} {
		b.Run(kind+"/loop", func(b *testing.B) {
			m := buildBenchIndex(b, kind, index.Config{MinChunkSize: 20})
			benchUpdates(b, m)
		})
		b.Run(kind+"/batch", func(b *testing.B) {
			m := buildBenchIndex(b, kind, index.Config{MinChunkSize: 20})
			batch := make([]index.Update, 0, updateBatchSize)
			b.ResetTimer()
			for n := 0; n < b.N; {
				sz := updateBatchSize
				if n+sz > b.N {
					sz = b.N - n
				}
				batch = batch[:0]
				for j := 0; j < sz; j++ {
					u := updates[(n+j)%len(updates)]
					batch = append(batch, index.Update{Op: index.ScoreOp, Doc: u.Doc, Score: u.NewScore})
				}
				if err := m.ApplyUpdates(batch); err != nil {
					b.Fatal(err)
				}
				n += sz
			}
		})
	}
}

// BenchmarkConcurrentQuery measures the Figure 7 query mix served from 1,
// 2, 4 and GOMAXPROCS concurrent goroutines against one shared index.  The
// reported ns/op is aggregate wall-clock per query, so on a multi-core
// machine it should drop near-linearly as workers grow (>=3x aggregate QPS
// at 4 workers is the acceptance bar); on one core it stays flat, which
// bounds the coordination overhead of the goroutine-safe read path.  The
// qps metric makes the scaling explicit.  The worker set and the worker
// loop are shared with `svrbench -experiment concurrent`
// (bench.WorkerCounts / bench.RunConcurrentQueries) so the two report the
// same thing.
func BenchmarkConcurrentQuery(b *testing.B) {
	_, queries, updates := sharedCorpus()
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk"} {
		m := buildBenchIndex(b, kind, index.Config{MinChunkSize: 20})
		for _, u := range updates[:4000] {
			if err := updateScore(m, u); err != nil {
				b.Fatal(err)
			}
		}
		for _, workers := range bench.WorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(b *testing.B) {
				b.ResetTimer()
				if _, err := bench.RunConcurrentQueries(bench.MethodSearcher(m), queries, 10, workers, b.N); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
			})
		}
	}
}

// BenchmarkConcurrentSearch is BenchmarkConcurrentQuery one layer up: the
// queries go through core.TextIndex.Search on a real engine, so the index
// RW-lock coordination this PR added (and the search-side tokenization and
// close-fence check) is part of the measured cost.  Comparing its scaling
// against BenchmarkConcurrentQuery's isolates what the lock layer costs —
// a regression that serializes readers shows up here and not there.
func BenchmarkConcurrentSearch(b *testing.B) {
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 8192))
	if _, err := workload.BuildArchiveDB(db, workload.DefaultArchiveParams()); err != nil {
		b.Fatal(err)
	}
	engine := core.NewEngine(db, core.Options{})
	idx, err := engine.CreateTextIndex("m", "Movies", "desc", core.IndexOptions{
		Method: core.MethodChunk,
		Spec:   workload.ArchiveSpec(),
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := [][]string{{"golden", "gate"}, {"silent", "river"}, {"pacific", "harbor"}, {"midnight", "fog"}}
	search := func(terms []string, k int) error {
		_, err := idx.Search(core.SearchRequest{Query: strings.Join(terms, " "), K: k})
		return err
	}
	for _, workers := range bench.WorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			if _, err := bench.RunConcurrentQueries(search, queries, 10, workers, b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
	if err := engine.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeQuery is BenchmarkConcurrentSearch one more layer up: the
// same archive dataset and query pool, but every query travels the full
// serving stack — loopback TCP, JSON codec, route mux, metrics — via the
// internal/server load generator.  Comparing its workers=1 line against
// BenchmarkConcurrentSearch/workers=1 is the measured HTTP serving
// overhead; svrbench -experiment serve reports the same comparison as a
// table.
func BenchmarkServeQuery(b *testing.B) {
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 8192))
	if _, err := workload.BuildArchiveDB(db, workload.DefaultArchiveParams()); err != nil {
		b.Fatal(err)
	}
	engine := core.NewEngine(db, core.Options{})
	if _, err := engine.CreateTextIndex("m", "Movies", "desc", core.IndexOptions{
		Method: core.MethodChunk,
		Spec:   workload.ArchiveSpec(),
	}); err != nil {
		b.Fatal(err)
	}
	srv := server.New(engine, server.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	baseURL := "http://" + addr
	queries := [][]string{{"golden", "gate"}, {"silent", "river"}, {"pacific", "harbor"}, {"midnight", "fog"}}
	for _, workers := range bench.WorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			client := server.NewLoadClient(workers)
			// One warm pass establishes the keep-alive connections.
			if _, err := server.RunSearchLoad(client, baseURL, "m", queries, 10, workers, workers); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := server.RunSearchLoad(client, baseURL, "m", queries, 10, workers, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(res.QPS, "qps")
			b.ReportMetric(float64(res.P99.Nanoseconds())/1e6, "p99-ms")
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure9_CombinedScores measures combined SVR+TF-IDF queries for
// the two TermScore methods (Figure 9).
func BenchmarkFigure9_CombinedScores(b *testing.B) {
	for _, kind := range []string{"ID-TermScore", "Chunk-TermScore"} {
		b.Run(kind, func(b *testing.B) {
			m := buildBenchIndex(b, kind, index.Config{MinChunkSize: 20})
			benchQueries(b, m, 10, false, true)
		})
	}
}

// BenchmarkFigure10_Disjunctive measures disjunctive (OR) queries per method
// (Figure 10).
func BenchmarkFigure10_Disjunctive(b *testing.B) {
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk"} {
		b.Run(kind, func(b *testing.B) {
			m := buildBenchIndex(b, kind, index.Config{MinChunkSize: 20})
			benchQueries(b, m, 10, true, false)
		})
	}
}

// BenchmarkTable3_Insertion measures incremental document insertion into the
// Chunk method (Table 3).
func BenchmarkTable3_Insertion(b *testing.B) {
	corpus, _, _ := sharedCorpus()
	m := buildBenchIndex(b, "Chunk", index.Config{MinChunkSize: 20})
	// Fresh documents reuse the corpus token streams under new IDs.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := workload.DocID(i%corpus.NumDocs() + 1)
		tokens, err := corpus.Tokens(src)
		if err != nil {
			b.Fatal(err)
		}
		doc := postings.DocID(corpus.NumDocs() + i + 1)
		ins := index.Update{Op: index.InsertOp, Doc: doc, Tokens: tokens, Score: corpus.Score(src)}
		if err := m.ApplyUpdates([]index.Update{ins}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdRatio_Update measures Score-Threshold update cost across
// threshold ratios (§5.3.1).
func BenchmarkThresholdRatio_Update(b *testing.B) {
	for _, ratio := range []float64{100, 11.24, 2, 1.2} {
		b.Run(fmt.Sprintf("ratio=%.2f", ratio), func(b *testing.B) {
			m := buildBenchIndex(b, "Score-Threshold", index.Config{ThresholdRatio: ratio})
			benchUpdates(b, m)
		})
	}
}

// BenchmarkAblation_FancyListQuery measures Chunk-TermScore combined queries
// for different fancy-list lengths (design-choice ablation).
func BenchmarkAblation_FancyListQuery(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("fancy=%d", n), func(b *testing.B) {
			m := buildBenchIndex(b, "Chunk-TermScore", index.Config{FancyListSize: n, MinChunkSize: 20})
			benchQueries(b, m, 10, false, true)
		})
	}
}

// probeSink keeps the compiler from discarding BenchmarkProbeGet's lookups.
var probeSink []byte

// BenchmarkProbeGet measures one btree.Probe lookup on a Score-table-shaped
// tree (8-byte ordered keys, 9-byte values, bulk-loaded at the Score table's
// fill): ascending keys are the query path's candidate order, where nearly
// every lookup lands on the cached leaf image; random keys make every lookup
// a leaf jump (descent plus image reload).  Both must report 0 allocs/op —
// that is what keeps candidate resolution off the allocator.
func BenchmarkProbeGet(b *testing.B) {
	const n = 50_000
	pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 8192)
	items := make([]btree.Item, n)
	for i := range items {
		items[i] = btree.Item{Key: codec.PutOrderedUint64(nil, uint64(i)), Value: make([]byte, 9)}
	}
	tree, err := btree.BulkLoadFill(pool, items, 0.55)
	if err != nil {
		b.Fatal(err)
	}
	ascending := make([]int, n)
	for i := range ascending {
		ascending[i] = i
	}
	for _, o := range []struct {
		name  string
		order []int
	}{{"ascending", ascending}, {"random", rand.New(rand.NewSource(1)).Perm(n)}} {
		order := o.order
		b.Run(o.name, func(b *testing.B) {
			probe := tree.View().NewProbe()
			for i := range items { // grow the probe's buffers to their steady-state size
				if _, _, err := probe.Get(items[i].Key); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, ok, err := probe.Get(items[order[i%n]].Key)
				if err != nil || !ok {
					b.Fatalf("probe.Get(%d) = %v, %v", order[i%n], ok, err)
				}
				probeSink = v
			}
		})
	}
}

// BenchmarkDurableScoreBatch measures the durable write path the repo
// benchmark's update-storm exercises: one 128-row score-only ApplyBatch per
// iteration against a durable engine with a Chunk and a Chunk-TermScore index
// over the shared corpus, commit included.  Beside ns/op it reports what the
// commit wrote — WAL bytes and pagefile page writes per batch — which is what
// a score update is supposed to keep small.
func BenchmarkDurableScoreBatch(b *testing.B) {
	const batchRows = 128
	corpus, _, updates := sharedCorpus()
	e, err := core.Open(filepath.Join(b.TempDir(), "docs.svrdb"), core.OpenOptions{
		Specs:     map[string]view.Spec{"docs": workload.DocsSpec()},
		PoolPages: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	tbl, err := workload.LoadDocsTable(e.DB(), corpus, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []core.MethodKind{core.MethodChunk, core.MethodChunkTermScore} {
		if _, err := e.CreateTextIndex(string(kind), workload.DocsTable, "body", core.IndexOptions{Method: kind, SpecName: "docs"}); err != nil {
			b.Fatal(err)
		}
	}
	batch := func(i int) []workload.ScoreUpdate {
		at := (i * batchRows) % (len(updates) - batchRows)
		return updates[at : at+batchRows]
	}
	apply := func(us []workload.ScoreUpdate) {
		if err := e.ApplyBatch(func() error { return workload.ApplyScoreUpdates(tbl, us) }); err != nil {
			b.Fatal(err)
		}
	}
	apply(batch(0)) // the first batch after a build settles the free list
	file := e.Pool().File()
	before := file.Stats()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		apply(batch(i))
	}
	b.StopTimer()
	after := file.Stats()
	b.ReportMetric(float64(after.WALBytes-before.WALBytes)/float64(b.N), "wal-B/op")
	b.ReportMetric(float64(after.Writes-before.Writes)/float64(b.N), "page-writes/op")
}
