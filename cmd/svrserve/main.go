// Command svrserve runs the SVR engine as an HTTP daemon: it builds the
// Internet-Archive-style movie database (the paper's running example),
// creates a text index over the movie descriptions, and serves the JSON API
// of internal/server until SIGINT/SIGTERM triggers a graceful shutdown —
// in-flight requests drain, then the engine closes with its pin audit.
//
// Usage:
//
//	svrserve -addr :8080 -movies 2000 -method chunk
//	svrserve -addr :8080 -data archive.svrdb   # build once, serve forever
//
//	curl localhost:8080/healthz
//	curl -d '{"query":"golden gate","k":5,"load_rows":true}' \
//	     localhost:8080/v1/indexes/movies_desc/search
//	curl -d '{"ops":[{"op":"update","table":"Statistics","pk":7,"set":{"nVisit":9000}}]}' \
//	     localhost:8080/v1/batch
//	curl localhost:8080/v1/stats
//
// Sharded serving.  Every shape below is the same server — one handler set
// over a list of backends, of which the single engine above is the
// one-backend case — so the API, its status codes and its /healthz and
// /v1/stats bodies are the same in all of them:
//
//	svrserve -addr :8080 -router -shards 4        # 4 in-process shards
//
//	svrserve -addr :8081 -shard-index 0 -shard-count 2   # shard server 0
//	svrserve -addr :8082 -shard-index 1 -shard-count 2   # shard server 1
//	svrserve -addr :8080 -router \
//	    -backends http://127.0.0.1:8081,http://127.0.0.1:8082 -hedge 50ms
//
// A shard server builds only its partition of the dataset (the generator's
// random stream is shared, so the shards exactly partition the single-node
// dataset); over several shards searches scatter and gather — with
// cluster-global IDF, so ranking is identical to a single node — writes go
// to the owning shard, tenants and indexes are created everywhere and one
// change stream carries every shard's changes.  A dead shard degrades
// searches to partial results instead of failing them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		movies    = flag.Int("movies", 2000, "number of movies in the example dataset")
		method    = flag.String("method", "chunk", "index method: id, score, score-threshold, chunk, id-termscore, chunk-termscore")
		poolPages = flag.Int("pool", 16384, "buffer pool capacity in pages")
		seed      = flag.Int64("seed", 11, "random seed for the example dataset")
		drainWait = flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight requests")
		dataPath  = flag.String("data", "", "durable data file; empty serves from memory.  A fresh file is built once, an existing file is recovered and served without rebuilding.  In -router mode with in-process shards, each shard appends .shard-N")

		router      = flag.Bool("router", false, "serve as a shard router instead of a single engine")
		shards      = flag.Int("shards", 2, "with -router and no -backends: number of in-process shards")
		backendsCSV = flag.String("backends", "", "with -router: comma-separated shard server URLs (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082); empty runs in-process shards")
		hedge       = flag.Duration("hedge", 0, "with -router over HTTP backends: issue a hedge search request after this latency (0 disables)")
		partitioner = flag.String("partitioner", "", "partitioner routing rows to shards (default hash); must match across router and shard servers")

		shardIndex = flag.Int("shard-index", -1, "serve as shard N of -shard-count: build and serve only this shard's slice of the dataset")
		shardCount = flag.Int("shard-count", 0, "total shard count that -shard-index is part of")
	)
	flag.Parse()

	cfg := config{
		addr:        *addr,
		movies:      *movies,
		method:      *method,
		poolPages:   *poolPages,
		seed:        *seed,
		drainWait:   *drainWait,
		dataPath:    *dataPath,
		router:      *router,
		shards:      *shards,
		backends:    *backendsCSV,
		hedge:       *hedge,
		partitioner: *partitioner,
		shardIndex:  *shardIndex,
		shardCount:  *shardCount,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "svrserve:", err)
		os.Exit(1)
	}
}

type config struct {
	addr      string
	movies    int
	method    string
	poolPages int
	seed      int64
	drainWait time.Duration
	dataPath  string

	router      bool
	shards      int
	backends    string
	hedge       time.Duration
	partitioner string

	shardIndex int
	shardCount int
}

// archiveRoutingColumns is the placement rule for the example database:
// Movies route by primary key, Reviews colocate with their movie (the SVR
// spec averages a movie's local reviews), and Statistics' primary key sID
// equals mID so default pk routing already colocates it.
func archiveRoutingColumns() map[string]string {
	return map[string]string{"Reviews": "mID"}
}

// shardKeep returns the predicate selecting shard idx's movies under the
// named partitioner, or nil for an unsharded build.
func shardKeep(partitioner string, idx, count int) (func(int64) bool, error) {
	if count <= 1 {
		return nil, nil
	}
	part, err := core.PartitionerByName(partitioner)
	if err != nil {
		return nil, err
	}
	return func(mID int64) bool { return part.Shard(mID, count) == idx }, nil
}

// newEngine builds or reopens an engine holding the (possibly filtered)
// example dataset.  With a data path the engine is durable: the first run
// ingests the dataset and every later run recovers the committed state
// (replaying the WAL if the last run was killed) and serves it without
// rebuilding.
func newEngine(cfg config, dataPath string, keep func(int64) bool) (*core.Engine, error) {
	params := workload.DefaultArchiveParams()
	params.NumMovies = cfg.movies
	params.Seed = cfg.seed

	if dataPath == "" {
		pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), cfg.poolPages)
		db := relation.NewDB(pool)
		n, err := workload.BuildArchiveDBFiltered(db, params, keep)
		if err != nil {
			return nil, err
		}
		fmt.Printf("built archive database slice: %d of %d movies\n", n, cfg.movies)
		engine := core.NewEngine(db, core.Options{})
		// Registered (not just passed inline) so POST /v1/indexes can
		// resolve "archive" for online index creation.
		engine.RegisterSpec("archive", workload.ArchiveSpec())
		if _, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", core.IndexOptions{
			Method:   core.MethodKind(cfg.method),
			SpecName: "archive",
		}); err != nil {
			return nil, err
		}
		return engine, nil
	}

	open := time.Now()
	engine, err := core.Open(dataPath, core.OpenOptions{
		Specs:     map[string]view.Spec{"archive": workload.ArchiveSpec()},
		PoolPages: cfg.poolPages,
	})
	if err != nil {
		return nil, err
	}
	if len(engine.TextIndexNames()) > 0 {
		fs := engine.Pool().File().Stats()
		fmt.Printf("recovered %s in %s (%d WAL replays, %d torn pages detected)\n",
			dataPath, time.Since(open).Round(time.Millisecond), fs.Recoveries, fs.TornPages)
		return engine, nil
	}
	n, err := workload.BuildArchiveDBFiltered(engine.DB(), params, keep)
	if err != nil {
		engine.Close()
		return nil, err
	}
	fmt.Printf("built archive database slice into %s: %d of %d movies\n", dataPath, n, cfg.movies)
	if _, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", core.IndexOptions{
		Method:   core.MethodKind(cfg.method),
		Spec:     workload.ArchiveSpec(),
		SpecName: "archive",
	}); err != nil {
		engine.Close()
		return nil, err
	}
	return engine, nil
}

// newServer builds the backends — remote shard servers when -backends is
// given, in-process engines otherwise — and puts the one handler set over
// them.  An in-process engine per shard: every slice of -shards with
// -router, this process's own slice with -shard-index/-shard-count, the
// whole dataset otherwise.
func newServer(cfg config) (*server.Server, error) {
	var backends []server.Backend
	if cfg.router && cfg.backends != "" {
		for _, u := range strings.Split(cfg.backends, ",") {
			if u = strings.TrimSpace(u); u != "" {
				backends = append(backends, server.NewHTTPBackend(u, cfg.hedge))
			}
		}
		if len(backends) == 0 {
			return nil, fmt.Errorf("-backends parsed to zero URLs")
		}
		fmt.Printf("routing across %d shard servers (hedge %s)\n", len(backends), cfg.hedge)
	} else {
		first, last, of := 0, 0, 1
		switch {
		case cfg.router:
			if cfg.shards < 1 {
				return nil, fmt.Errorf("-shards must be at least 1")
			}
			last, of = cfg.shards-1, cfg.shards
			fmt.Printf("routing across %d in-process shards\n", cfg.shards)
		case cfg.shardIndex >= 0:
			if cfg.shardIndex >= cfg.shardCount {
				return nil, fmt.Errorf("-shard-index %d requires -shard-count > %d", cfg.shardIndex, cfg.shardIndex)
			}
			first, last, of = cfg.shardIndex, cfg.shardIndex, cfg.shardCount
			fmt.Printf("serving shard %d of %d\n", cfg.shardIndex, cfg.shardCount)
		}
		for i := first; i <= last; i++ {
			keep, err := shardKeep(cfg.partitioner, i, of)
			dataPath := cfg.dataPath
			if dataPath != "" && cfg.router {
				dataPath = fmt.Sprintf("%s.shard-%d", dataPath, i)
			}
			var engine *core.Engine
			if err == nil {
				engine, err = newEngine(cfg, dataPath, keep)
			}
			if err != nil {
				for _, b := range backends {
					b.Close()
				}
				return nil, err
			}
			backends = append(backends, server.NewEngineBackend(fmt.Sprintf("shard-%d", i), engine, true))
		}
	}
	return server.NewRouter(backends, server.RouterOptions{
		ReadTimeout:    30 * time.Second,
		Partitioner:    cfg.partitioner,
		RoutingColumns: archiveRoutingColumns(),
	})
}

func run(cfg config) error {
	d, err := newServer(cfg)
	if err != nil {
		return err
	}
	bound, err := d.Start(cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on http://%s (SIGINT/SIGTERM to drain and stop)\n", bound)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stop:
		fmt.Println("draining...")
	case <-d.Done():
		// The accept loop died on its own (e.g. fd exhaustion): surface it
		// now instead of serving nothing until an operator notices.
		err := d.ServeErr()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
		defer cancel()
		if shutdownErr := d.Shutdown(ctx); shutdownErr != nil {
			return shutdownErr
		}
		if err == nil {
			err = fmt.Errorf("server stopped unexpectedly")
		}
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Println("shutdown complete (in-flight requests drained, pin audit clean)")
	return nil
}
