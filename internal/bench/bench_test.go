package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"svrdb/internal/index"
	"svrdb/internal/postings"
	"svrdb/internal/workload"
)

// tinyOptions keeps the experiment smoke tests fast.
func tinyOptions() Options {
	return Options{
		Scale:      0.03,
		NumUpdates: 300,
		NumQueries: 3,
		K:          5,
		MeanStep:   100,
		ColdCache:  true,
		PoolPages:  2048,
		Seed:       1,
	}
}

func TestRegistryIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Run == nil || e.Paper == "" || e.Description == "" {
			t.Errorf("experiment %+v is missing fields", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("table1"); !ok {
		t.Error("Lookup(table1) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestOptionsNormalization(t *testing.T) {
	var zero Options
	n := zero.normalized()
	d := DefaultOptions()
	if n.Scale != d.Scale || n.NumUpdates != d.NumUpdates || n.K != d.K || n.PoolPages != d.PoolPages {
		t.Errorf("normalized zero options = %+v", n)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Name:    "Example",
		Caption: "caption",
		Header:  []string{"A", "Blongheader"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Example", "caption", "Blongheader", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentsSmoke runs every registered experiment at a tiny scale and
// checks that it produces a non-empty, well-shaped table.  This keeps the
// harness runnable end to end without waiting for full-scale numbers.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	opts := tinyOptions()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			start := time.Now()
			tbl, err := e.Run(opts)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("%s row %d has %d cells, header has %d", e.ID, i, len(row), len(tbl.Header))
				}
			}
			t.Logf("%s: %d rows in %s", e.ID, len(tbl.Rows), time.Since(start).Round(time.Millisecond))
		})
	}
}

// TestTable1SizeOrdering verifies the qualitative result of Table 1 at smoke
// scale: the Score method's lists dominate, Chunk stays close to ID.
func TestTable1SizeOrdering(t *testing.T) {
	opts := tinyOptions()
	corpus := corpusFor(opts)
	sizes := map[string]uint64{}
	for _, m := range []string{"ID", "Score", "Score-Threshold", "Chunk"} {
		r, err := newRig(m, corpus, opts, index.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sizes[m] = r.method.Stats().LongListBytes
	}
	if sizes["Score"] <= sizes["Score-Threshold"] {
		t.Errorf("Score (%d) should exceed Score-Threshold (%d)", sizes["Score"], sizes["Score-Threshold"])
	}
	if sizes["Score-Threshold"] <= sizes["ID"] {
		t.Errorf("Score-Threshold (%d) should exceed ID (%d)", sizes["Score-Threshold"], sizes["ID"])
	}
	if float64(sizes["Chunk"]) > 1.5*float64(sizes["ID"]) {
		t.Errorf("Chunk (%d) should stay close to ID (%d)", sizes["Chunk"], sizes["ID"])
	}
}

// --- paper-figure benchmarks ---------------------------------------------------
//
// One testing.B benchmark per table and figure of §5.  Each times the core
// operation its experiment measures (a bulk build, a score update, a top-k
// query, a document insertion) on the experiments' own corpus, rigs, update
// traces and query set at the registry's default scale.  The pool stays
// warm: a benchmark times the operation, not the cold-cache refill an
// experiment charges every query.

// benchOptions are the registry's defaults with a warm pool.
var benchOptions = func() Options {
	o := DefaultOptions()
	o.ColdCache = false
	return o
}()

// minChunk is the minimum chunk size the experiments build chunked kinds with.
var minChunk = minChunkSize(benchOptions)

// benchRig builds kind over the default corpus.  Its pin audit runs when the
// benchmark ends, as withPinCheck's does after an experiment run.
func benchRig(b *testing.B, kind string, cfg index.Config) *rig {
	b.Helper()
	r, err := newRig(kind, corpusFor(benchOptions), benchOptions, cfg)
	if err != nil {
		b.Fatal(err)
	}
	checkedPools = nil // audited below; keep no finished benchmark's pool alive
	b.Cleanup(func() {
		if err := r.pool.CheckPins(); err != nil {
			b.Error(err)
		}
	})
	return r
}

// benchTrace is a score-update trace of the given mean step, seeded as
// Table 2 and §5.3.4 seed theirs, five times the experiments' length: the
// update benchmarks cycle it, and a document it updated only once would make
// every later cycle's update of it a no-op.
func benchTrace(step float64) []workload.ScoreUpdate {
	o := benchOptions
	return updateTrace(corpusFor(o), 5*o.NumUpdates, step, o.Seed+int64(step))
}

// timeUpdates applies b.N updates of the trace, cycling it, in ApplyUpdates
// batches of size (1 is the paper's one-at-a-time loop).  patches/op counts
// the table writes the in-place patch path absorbed: a silent fallback to
// full leaf rewrites shows as it falling.
func timeUpdates(b *testing.B, r *rig, trace []workload.ScoreUpdate, size int) {
	b.Helper()
	patches := r.method.Stats().TablePatches
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(b.N-done, len(trace))
		if _, _, err := applyBatched(r, trace[:n], 0, size); err != nil {
			b.Fatal(err)
		}
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(r.method.Stats().TablePatches-patches)/float64(b.N), "patches/op")
}

// timeQueries runs b.N queries of the experiments' query set, cycling it,
// and reports the postings each one scanned.
func timeQueries(b *testing.B, r *rig, k int, disjunctive, withTermScores bool) {
	b.Helper()
	queries := workload.GenerateQueries(corpusFor(benchOptions), queryParams(benchOptions))
	scanned := 0.0
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(b.N-done, len(queries))
		qs, err := runQueries(r, queries[:n], benchOptions, k, disjunctive, withTermScores)
		if err != nil {
			b.Fatal(err)
		}
		scanned += qs.avgPostings * float64(n)
		done += n
	}
	b.StopTimer()
	b.ReportMetric(scanned/float64(b.N), "postings/query")
}

// BenchmarkTable1_BuildLongLists times the bulk build that produces the long
// lists whose sizes Table 1 reports; the size is attached as a metric.
func BenchmarkTable1_BuildLongLists(b *testing.B) {
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk", "ID-TermScore", "Chunk-TermScore"} {
		b.Run(kind, func(b *testing.B) {
			var size uint64
			for i := 0; i < b.N; i++ {
				size = benchRig(b, kind, index.Config{}).method.Stats().LongListBytes
			}
			b.ReportMetric(float64(size)/(1024*1024), "MB")
		})
	}
}

// BenchmarkTable2_ChunkRatio times both sides of the Table 2 tradeoff, score
// update and query, for several chunk ratios.
func BenchmarkTable2_ChunkRatio(b *testing.B) {
	for _, ratio := range []float64{164.84, 21.48, 6.12, 1.56} {
		r := benchRig(b, "Chunk", index.Config{ChunkRatio: ratio, MinChunkSize: minChunk})
		b.Run(fmt.Sprintf("update/ratio=%.2f", ratio), func(b *testing.B) { timeUpdates(b, r, benchTrace(benchOptions.MeanStep), 1) })
		b.Run(fmt.Sprintf("query/ratio=%.2f", ratio), func(b *testing.B) { timeQueries(b, r, benchOptions.K, false, false) })
	}
}

// BenchmarkFigure7_ScoreUpdate times one score update per SVR-only method
// (the update side of Figure 7).
func BenchmarkFigure7_ScoreUpdate(b *testing.B) {
	for _, kind := range []string{"ID", "Score", "Score-Threshold", "Chunk"} {
		b.Run(kind, func(b *testing.B) {
			timeUpdates(b, benchRig(b, kind, index.Config{MinChunkSize: minChunk}), benchTrace(benchOptions.MeanStep), 1)
		})
	}
}

// BenchmarkFigure7_Query times a query per SVR-only method after the default
// update trace (the query side of Figure 7).
func BenchmarkFigure7_Query(b *testing.B) {
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk"} {
		b.Run(kind, func(b *testing.B) {
			r := benchRig(b, kind, index.Config{MinChunkSize: minChunk})
			if _, _, err := applyUpdates(r, benchTrace(benchOptions.MeanStep), benchOptions.NumUpdates); err != nil {
				b.Fatal(err)
			}
			timeQueries(b, r, benchOptions.K, false, false)
		})
	}
}

// BenchmarkFigure8_VaryK times a query as k grows (Figure 8).
func BenchmarkFigure8_VaryK(b *testing.B) {
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk"} {
		r := benchRig(b, kind, index.Config{MinChunkSize: minChunk})
		for _, k := range []int{1, 10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/k=%d", kind, k), func(b *testing.B) { timeQueries(b, r, k, false, false) })
		}
	}
}

// BenchmarkStepSweep_ChunkUpdate times a Chunk update as the mean update
// step grows (§5.3.4): larger steps push more documents across two chunk
// boundaries and hence into the short lists.
func BenchmarkStepSweep_ChunkUpdate(b *testing.B) {
	for _, step := range []float64{100, 1000, 10000} {
		trace := benchTrace(step)
		b.Run(fmt.Sprintf("step=%.0f", step), func(b *testing.B) {
			timeUpdates(b, benchRig(b, "Chunk", index.Config{MinChunkSize: minChunk}), trace, 1)
		})
	}
}

// BenchmarkUpdateThroughput is the update experiment's comparison per op:
// the one-at-a-time loop against ApplyUpdates batches of
// updateFigureBatchSize over the same trace.
func BenchmarkUpdateThroughput(b *testing.B) {
	trace := benchTrace(benchOptions.MeanStep)
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk", "Chunk-TermScore"} {
		for _, size := range []int{1, updateFigureBatchSize} {
			name := kind + "/loop"
			if size > 1 {
				name = kind + "/batch"
			}
			b.Run(name, func(b *testing.B) {
				timeUpdates(b, benchRig(b, kind, index.Config{MinChunkSize: minChunk}), trace, size)
			})
		}
	}
}

// BenchmarkFigure9_CombinedScores times combined SVR+TF-IDF queries for the
// two TermScore methods (Figure 9).
func BenchmarkFigure9_CombinedScores(b *testing.B) {
	for _, kind := range []string{"ID-TermScore", "Chunk-TermScore"} {
		b.Run(kind, func(b *testing.B) {
			timeQueries(b, benchRig(b, kind, index.Config{MinChunkSize: minChunk}), benchOptions.K, false, true)
		})
	}
}

// BenchmarkFigure10_Disjunctive times a disjunctive (OR) query per method
// (Figure 10).
func BenchmarkFigure10_Disjunctive(b *testing.B) {
	for _, kind := range []string{"ID", "Score-Threshold", "Chunk"} {
		b.Run(kind, func(b *testing.B) {
			timeQueries(b, benchRig(b, kind, index.Config{MinChunkSize: minChunk}), benchOptions.K, true, false)
		})
	}
}

// BenchmarkTable3_Insertion times one document insertion into the Chunk
// method (Table 3).  New documents reuse the corpus token streams under
// fresh IDs.
func BenchmarkTable3_Insertion(b *testing.B) {
	corpus := corpusFor(benchOptions)
	r := benchRig(b, "Chunk", index.Config{MinChunkSize: minChunk})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := workload.DocID(i%corpus.NumDocs() + 1)
		tokens, err := corpus.Tokens(src)
		if err != nil {
			b.Fatal(err)
		}
		doc := postings.DocID(corpus.NumDocs() + i + 1)
		ins := index.Update{Op: index.InsertOp, Doc: doc, Tokens: tokens, Score: corpus.Score(src)}
		if err := r.method.ApplyUpdates([]index.Update{ins}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdRatio_Update times a Score-Threshold update across
// threshold ratios (§5.3.1).
func BenchmarkThresholdRatio_Update(b *testing.B) {
	for _, ratio := range []float64{100, 11.24, 2, 1.2} {
		b.Run(fmt.Sprintf("ratio=%.2f", ratio), func(b *testing.B) {
			timeUpdates(b, benchRig(b, "Score-Threshold", index.Config{ThresholdRatio: ratio}), benchTrace(benchOptions.MeanStep), 1)
		})
	}
}

// BenchmarkAblation_FancyListQuery times Chunk-TermScore combined queries
// for several fancy-list lengths (the fancy-list ablation).
func BenchmarkAblation_FancyListQuery(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("fancy=%d", n), func(b *testing.B) {
			timeQueries(b, benchRig(b, "Chunk-TermScore", index.Config{FancyListSize: n, MinChunkSize: minChunk}), benchOptions.K, false, true)
		})
	}
}
