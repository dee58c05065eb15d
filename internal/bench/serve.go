package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/workload"
)

// This file implements the HTTP serving experiment: the Figure 7 query mix
// replayed over the real serving stack — TCP loopback, JSON codec, mux,
// metrics, the engine's snapshot coordination — at 1/2/4/GOMAXPROCS client
// workers, next to the same queries through a direct core.TextIndex.Search
// call.  The gap between the two rows is the measured serving overhead; the
// paper's evaluation stops at the method layer, but the engine's north star
// is serving traffic, so the harness has to know what the HTTP layer costs.

// serveEngine bundles the engine-backed rig the serve experiment measures.
type serveEngine struct {
	engine *core.Engine
	index  *core.TextIndex
}

// buildServeEngine loads the synthetic corpus into a relational table
// ("Docs": pk, body text, score column) and builds a text index whose SVR
// score is the score column itself, so the workload generator's update
// trace maps 1:1 onto structured updates.
func buildServeEngine(corpus *workload.Corpus, opts Options, kind core.MethodKind) (*serveEngine, error) {
	return buildServeEngineFiltered(corpus, opts, kind, nil)
}

// buildServeEngineFiltered is buildServeEngine restricted to the documents
// keep selects (nil keeps everything); the shard experiment uses it to give
// each shard engine its partition of the corpus.
func buildServeEngineFiltered(corpus *workload.Corpus, opts Options, kind core.MethodKind, keep func(int64) bool) (*serveEngine, error) {
	pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), opts.PoolPages*4)
	registerPool(pool)
	db := relation.NewDB(pool)
	if _, err := workload.LoadDocsTable(db, corpus, keep); err != nil {
		return nil, err
	}
	engine := core.NewEngine(db, core.Options{})
	ti, err := engine.CreateTextIndex("docs", "Docs", "body", core.IndexOptions{
		Method:       kind,
		Spec:         workload.DocsSpec(),
		MinChunkSize: minChunkSize(opts),
	})
	if err != nil {
		return nil, err
	}
	return &serveEngine{engine: engine, index: ti}, nil
}

// applyServeUpdates replays the score-update trace as structured updates
// through Engine.ApplyBatch, populating the short lists the same way the
// method-level experiments do before measuring queries.
func (se *serveEngine) applyServeUpdates(updates []workload.ScoreUpdate, batchSize int) error {
	for start := 0; start < len(updates); start += batchSize {
		end := start + batchSize
		if end > len(updates) {
			end = len(updates)
		}
		chunk := updates[start:end]
		err := se.engine.ApplyBatch(func() error {
			tbl, err := se.engine.DB().Table(workload.DocsTable)
			if err != nil {
				return err
			}
			return workload.ApplyScoreUpdates(tbl, chunk)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// measureDirect replays total queries through core.TextIndex.Search on one
// goroutine and summarizes latency the same way the load generator does, so
// the direct row of the table is exactly comparable to the HTTP rows.
func (se *serveEngine) measureDirect(queries [][]string, k, total int) (server.LoadResult, error) {
	lats := make([]time.Duration, 0, total)
	start := time.Now()
	for i := 0; i < total; i++ {
		terms := queries[i%len(queries)]
		qStart := time.Now()
		if _, err := se.index.Search(core.SearchRequest{Query: strings.Join(terms, " "), K: k}); err != nil {
			return server.LoadResult{}, err
		}
		lats = append(lats, time.Since(qStart))
	}
	return server.Summarize(lats, time.Since(start), 1), nil
}

// RunServe measures the HTTP serving layer against the direct search path.
func RunServe(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))

	up := workload.DefaultUpdateParams()
	up.NumUpdates = opts.NumUpdates
	up.MeanStep = opts.MeanStep
	up.Seed = opts.Seed + 47
	updates := workload.GenerateUpdates(corpus, up)

	se, err := buildServeEngine(corpus, opts, core.MethodChunk)
	if err != nil {
		return nil, err
	}
	if err := se.applyServeUpdates(updates, 256); err != nil {
		return nil, err
	}

	srv := server.New(se.engine, server.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	baseURL := "http://" + addr

	baseQueries := opts.NumQueries * 4
	if baseQueries < 64 {
		baseQueries = 64
	}

	// Warm the cache and the scratch pools once before measuring.
	if _, err := se.measureDirect(queries, opts.K, len(queries)); err != nil {
		return nil, err
	}

	direct, err := se.measureDirect(queries, opts.K, baseQueries)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Name: "HTTP Serving — Figure 7 query mix over the serving stack vs direct Search",
		Caption: fmt.Sprintf("Chunk method, k=%d, conjunctive, warm cache, after %d score updates; %d queries per worker, GOMAXPROCS=%d",
			opts.K, len(updates), baseQueries, runtime.GOMAXPROCS(0)),
		Header: []string{"Path", "Workers", "QPS", "avg (ms)", "p50 (ms)", "p99 (ms)", "p99.9 (ms)", "Scaling vs 1 worker"},
	}
	addRow := func(path string, r server.LoadResult, baseQPS float64) {
		scaling := "1.00x"
		if baseQPS > 0 && r.QPS > 0 && r.Workers > 1 {
			scaling = fmt.Sprintf("%.2fx", r.QPS/baseQPS)
		}
		t.Rows = append(t.Rows, []string{
			path, fmt.Sprintf("%d", r.Workers), fmt.Sprintf("%.0f", r.QPS),
			fmtDur(r.Avg), fmtDur(r.P50), fmtDur(r.P99), fmtDur(r.P999), scaling,
		})
	}
	addRow("direct Search", direct, 0)

	var httpBaseQPS float64
	var httpOneWorker server.LoadResult
	for _, workers := range WorkerCounts() {
		client := server.NewLoadClient(workers)
		// Warm this row's client so its keep-alive connections exist before
		// the measured window — otherwise each row's p99 includes TCP
		// handshakes, which is not what the experiment compares.
		if _, err := server.RunSearchLoad(client, baseURL, "docs", queries, opts.K, workers, workers*2); err != nil {
			return nil, err
		}
		res, err := server.RunSearchLoad(client, baseURL, "docs", queries, opts.K, workers, baseQueries*workers)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			httpBaseQPS = res.QPS
			httpOneWorker = res
		}
		addRow("HTTP", res, httpBaseQPS)
	}

	if direct.Avg > 0 && httpOneWorker.Avg > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"serving overhead at 1 worker: %.3f ms/query HTTP vs %.3f ms direct (%.2fx, +%s per request for TCP + JSON + mux + metrics)",
			float64(httpOneWorker.Avg.Nanoseconds())/1e6, float64(direct.Avg.Nanoseconds())/1e6,
			float64(httpOneWorker.Avg)/float64(direct.Avg), (httpOneWorker.Avg-direct.Avg).Round(time.Microsecond)))
	}
	t.Notes = append(t.Notes,
		"on a multi-core machine HTTP QPS should scale with workers like the concurrent experiment; on a single core it stays flat",
		"shutdown below is part of the measurement: the server drains in-flight requests and the engine's close-time pin audit must pass",
	)

	// Graceful shutdown is part of the serving contract: drain, close,
	// audit pins.  A failure here fails the experiment (and hence tier-1's
	// experiment smoke).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("bench: serve shutdown: %w", err)
	}
	return t, nil
}
