package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/topk"
)

// Router serves the single-node HTTP API over a set of shard backends.
// Writes are routed: each row lives on exactly one shard, chosen by a
// partitioner over the row's routing key.  Searches scatter to every
// healthy shard and gather through the same top-k merge discipline the
// engine uses internally, with one extra wrinkle for TF-IDF: document
// frequencies are collected from all shards first and the summed totals are
// pinned into each shard's request, so sharded ranking is byte-identical to
// a single engine holding all the data (see scatterSearch for the argument).
//
// Availability beats completeness on the read path: a dead shard removes
// its documents from the result and sets "partial": true, it does not fail
// the search.  The write path is the opposite — a write for a dead shard's
// key fails loudly, because silently rerouting it would strand the row
// where reads will never look.
type Router struct {
	backends []Backend
	part     core.Partitioner
	opts     RouterOptions
	metrics  *Registry
	mux      *http.ServeMux
	life     *lifecycle

	// health[i] tracks backends[i]; flipped by the prober and by search
	// failures, read lock-free on every request.
	health []shardHealth

	// stop ends the health prober; wg waits it out during shutdown.
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// schemas caches table schemas fetched from shards.  Tables are created
	// at load time and never altered over this API, so the cache cannot go
	// stale within a router's lifetime.
	schemaMu sync.Mutex
	schemas  map[string]*SchemaResponse
}

type shardHealth struct {
	up atomic.Bool
	// errMu guards lastErr, the human-readable reason the shard is down.
	errMu   sync.Mutex
	lastErr string
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// ReadTimeout and WriteTimeout bound request parsing and response
	// writing when the router owns the listener (Start).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// ShardTimeout bounds every per-shard sub-request; zero means 10s.  A
	// shard slower than this is treated exactly like a dead one: excluded,
	// result marked partial.
	ShardTimeout time.Duration
	// HealthInterval is the probe period; zero means 500ms.
	HealthInterval time.Duration
	// Partitioner names a registered partitioner; empty means the default.
	// It must match the partitioner the shard data was loaded with.
	Partitioner string
	// RoutingColumns overrides the routing column per table (default: the
	// table's first column, the primary key).  It must match the placement
	// used at load time.
	RoutingColumns map[string]string
}

const (
	defaultShardTimeout   = 10 * time.Second
	defaultHealthInterval = 500 * time.Millisecond
)

// NewRouter builds a router over the given shard backends.  Backend order
// is the shard numbering: backends[i] must hold exactly the keys the
// partitioner maps to shard i of len(backends).
func NewRouter(backends []Backend, opts RouterOptions) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("server: router needs at least one backend")
	}
	part, err := core.PartitionerByName(opts.Partitioner)
	if err != nil {
		return nil, err
	}
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = defaultShardTimeout
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = defaultHealthInterval
	}
	rt := &Router{
		backends: backends,
		part:     part,
		opts:     opts,
		metrics:  NewRegistry(),
		mux:      http.NewServeMux(),
		life:     newLifecycle(opts.ReadTimeout, opts.WriteTimeout),
		health:   make([]shardHealth, len(backends)),
		stop:     make(chan struct{}),
		schemas:  map[string]*SchemaResponse{},
	}
	// Start optimistic: every shard is presumed up until a probe or a
	// request says otherwise, so the first requests after boot are not
	// spuriously partial while the prober warms up.
	for i := range rt.health {
		rt.health[i].up.Store(true)
	}
	rt.routes()
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Metrics returns the router's endpoint metrics registry.
func (rt *Router) Metrics() *Registry { return rt.metrics }

// Backends returns the router's shard backends in shard order.
func (rt *Router) Backends() []Backend { return rt.backends }

// Handler returns the router's root handler behind the draining fence, for
// embedding in an external listener.
func (rt *Router) Handler() http.Handler {
	return rt.life.fence(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		jw := &jsonErrorWriter{ResponseWriter: w}
		start := time.Now()
		rt.mux.ServeHTTP(jw, r)
		if jw.rewrote {
			rt.metrics.Observe("(unmatched)", jw.status, time.Since(start))
		}
	}))
}

// Start listens on addr and serves in a background goroutine, returning the
// bound address.
func (rt *Router) Start(addr string) (string, error) {
	return rt.life.start(addr, rt.Handler())
}

// Done closes when the accept loop has exited.
func (rt *Router) Done() <-chan struct{} { return rt.life.done() }

// ServeErr reports why the accept loop exited; meaningful once Done closes.
func (rt *Router) ServeErr() error { return rt.life.serveError() }

// Shutdown drains in-flight requests, stops the health prober and closes
// every backend.  Idempotent like Server.Shutdown.
func (rt *Router) Shutdown(ctx context.Context) error {
	return rt.life.shutdown(ctx, func() error {
		rt.stopOnce.Do(func() { close(rt.stop) })
		rt.wg.Wait()
		var errs []error
		for _, b := range rt.backends {
			if err := b.Close(); err != nil {
				errs = append(errs, fmt.Errorf("server: backend %s close: %w", b.Label(), err))
			}
		}
		return errors.Join(errs...)
	})
}

// --- health ----------------------------------------------------------------------

func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.ShardTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i := range rt.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := rt.backends[i].Health(ctx); err != nil {
				rt.markDown(i, err)
			} else {
				rt.markUp(i)
			}
		}(i)
	}
	wg.Wait()
}

func (rt *Router) markDown(i int, err error) {
	rt.health[i].up.Store(false)
	rt.health[i].errMu.Lock()
	rt.health[i].lastErr = err.Error()
	rt.health[i].errMu.Unlock()
}

// noteShardErr marks a shard down only for failures that say the shard
// itself is unhealthy: transport errors and 5xx responses.  A 4xx means the
// shard answered — it just rejected the request (unknown index, bad query) —
// and marking it down would eject every healthy shard the first time a
// client typos an index name.
func (rt *Router) noteShardErr(i int, err error) {
	var be *backendError
	if errors.As(err, &be) && be.status < 500 {
		return
	}
	rt.markDown(i, err)
}

func (rt *Router) markUp(i int) {
	rt.health[i].up.Store(true)
	rt.health[i].errMu.Lock()
	rt.health[i].lastErr = ""
	rt.health[i].errMu.Unlock()
}

// healthyShards returns the indices of shards currently believed up.
func (rt *Router) healthyShards() []int {
	idxs := make([]int, 0, len(rt.backends))
	for i := range rt.backends {
		if rt.health[i].up.Load() {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// --- routes ----------------------------------------------------------------------

func (rt *Router) routes() {
	register := func(pattern string, h http.HandlerFunc) {
		rt.mux.HandleFunc(pattern, rt.metrics.instrument(pattern, h))
	}
	register("GET /healthz", rt.handleHealthz)
	register("GET /v1/stats", rt.handleStats)
	register("GET /v1/tables/{name}/schema", rt.handleSchema)
	register("POST /v1/indexes", rt.handleCreateIndex)
	register("DELETE /v1/indexes/{name}", rt.handleDropIndex)
	register("POST /v1/indexes/{name}/search", rt.handleSearch)
	register("POST /v1/indexes/{name}/termstats", rt.handleTermStats)
	register("POST /v1/tables/{name}/rows", rt.handleInsertRows)
	register("POST /v1/batch", rt.handleBatch)
	register("POST /v1/tenants", rt.handleCreateTenant)
	register("GET /v1/changes", rt.handleChanges)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := make([]map[string]any, len(rt.backends))
	healthy := 0
	for i, b := range rt.backends {
		up := rt.health[i].up.Load()
		if up {
			healthy++
		}
		entry := map[string]any{"shard": i, "label": b.Label(), "healthy": up}
		rt.health[i].errMu.Lock()
		if rt.health[i].lastErr != "" {
			entry["error"] = rt.health[i].lastErr
		}
		rt.health[i].errMu.Unlock()
		shards[i] = entry
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case healthy == 0:
		// Nothing can be served; tell load balancers to stop sending.
		status = "down"
		code = http.StatusServiceUnavailable
	case healthy < len(rt.backends):
		// Still serving (partial results), but an operator should look.
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"mode":           "router",
		"uptime_seconds": rt.metrics.Uptime().Seconds(),
		"shards":         shards,
		"healthy_shards": healthy,
	})
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	perShard := make([]map[string]any, len(rt.backends))
	var wg sync.WaitGroup
	for i := range rt.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := rt.backends[i].Stats(ctx)
			if err != nil {
				perShard[i] = map[string]any{"error": err.Error()}
				return
			}
			perShard[i] = st
		}(i)
	}
	wg.Wait()
	shards := map[string]any{}
	totals := map[string]any{}
	healthy := 0
	for i, b := range rt.backends {
		if rt.health[i].up.Load() {
			healthy++
		}
		shards[fmt.Sprintf("shard-%d (%s)", i, b.Label())] = perShard[i]
		if _, failed := perShard[i]["error"]; !failed {
			mergeStatsInto(totals, perShard[i])
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": rt.metrics.Uptime().Seconds(),
		"cluster": map[string]any{
			"shards":         len(rt.backends),
			"healthy_shards": healthy,
			"partitioner":    rt.part.Name(),
		},
		"totals":    totals,
		"shards":    shards,
		"endpoints": rt.metrics.Snapshot(),
	})
}

// mergeStatsInto recursively sums src's numeric leaves into dst, so the
// router's "totals" section aggregates every per-shard counter map without
// enumerating the schema.  Non-numeric leaves (method names) keep the first
// shard's value; per-node keys that are not cluster-summable (uptime,
// endpoint latency snapshots) are skipped.
func mergeStatsInto(dst, src map[string]any) {
	for key, sv := range src {
		if key == "uptime_seconds" || key == "endpoints" {
			continue
		}
		switch sv := sv.(type) {
		case map[string]any:
			sub, ok := dst[key].(map[string]any)
			if !ok {
				sub = map[string]any{}
				dst[key] = sub
			}
			mergeStatsInto(sub, sv)
		default:
			if n, ok := toFloat(sv); ok {
				prev, _ := toFloat(dst[key])
				dst[key] = prev + n
			} else if _, exists := dst[key]; !exists {
				dst[key] = sv
			}
		}
	}
}

// toFloat widens any numeric stats value: in-process payloads carry typed
// ints, HTTP payloads decode to float64 or json.Number.
func toFloat(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	case uint64:
		return float64(v), true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}

func (rt *Router) handleSchema(w http.ResponseWriter, r *http.Request) {
	schema, err := rt.tableSchema(r.Context(), r.PathValue("name"))
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, schema)
}

// tableSchema resolves (and caches) a table's schema from the first healthy
// shard; every shard holds the same schema, only different rows.
func (rt *Router) tableSchema(ctx context.Context, table string) (*SchemaResponse, error) {
	rt.schemaMu.Lock()
	cached := rt.schemas[table]
	rt.schemaMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	idxs := rt.healthyShards()
	if len(idxs) == 0 {
		return nil, &backendError{status: http.StatusServiceUnavailable, msg: "router: no healthy shards"}
	}
	var firstErr error
	for _, i := range idxs {
		schema, err := rt.backends[i].Schema(ctx, table)
		if err == nil {
			rt.schemaMu.Lock()
			rt.schemas[table] = schema
			rt.schemaMu.Unlock()
			return schema, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// --- search ----------------------------------------------------------------------

func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	query, err := normalizeQuery(req.Query, req.Terms)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k, err := boundSearchK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Forward a canonical request: one query string and an explicit k, so
	// every shard tokenizes identically and the merge heap matches theirs.
	req.Query, req.Terms, req.K = query, nil, k
	resp, err := rt.scatterSearch(r.Context(), r.PathValue("name"), req)
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// scatterSearch fans a search out to every healthy shard and merges the
// top-k.  Correctness leans on two invariants: each document lives on
// exactly one shard, so the global top-k is a subset of the union of local
// top-ks; and when TF-IDF is in play the gather phase pins cluster-wide
// document frequencies into every shard's request, so per-shard scores are
// the scores a single engine would have computed and merging reduces to the
// usual deterministic heap order (score desc, then primary key asc).
func (rt *Router) scatterSearch(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error) {
	idxs := rt.healthyShards()
	if len(idxs) == 0 {
		return nil, &backendError{status: http.StatusServiceUnavailable, msg: "router: no healthy shards"}
	}
	partial := len(idxs) < len(rt.backends)
	ctx, cancel := context.WithTimeout(ctx, rt.opts.ShardTimeout)
	defer cancel()

	// Gather phase: sum per-shard document frequencies so each shard ranks
	// with collection-global IDF.  Only TF-IDF ranking consults collection
	// statistics; plain SVR-score ranking skips the extra round-trip.
	if req.WithTermScores && req.Global == nil {
		stats := make([]*TermStatsResponse, len(idxs))
		errs := make([]error, len(idxs))
		var wg sync.WaitGroup
		for j, i := range idxs {
			wg.Add(1)
			go func(j, i int) {
				defer wg.Done()
				stats[j], errs[j] = rt.backends[i].TermStats(ctx, index, req.Query)
			}(j, i)
		}
		wg.Wait()
		global := &GlobalStats{}
		alive := idxs[:0]
		var firstErr error
		for j, i := range idxs {
			if errs[j] != nil {
				// A shard that cannot answer the gather cannot score
				// consistently either; drop it from the scatter too.
				rt.noteShardErr(i, errs[j])
				partial = true
				if firstErr == nil {
					firstErr = errs[j]
				}
				continue
			}
			if global.DF == nil {
				global.DF = make([]int64, len(stats[j].DF))
			} else if len(stats[j].DF) != len(global.DF) {
				// Shards disagree on the query's term list — an analyzer
				// mismatch.  Global IDF would be garbage; fail loudly.
				return nil, fmt.Errorf("router: shard %s analyzed %d terms, others %d (analyzer mismatch?)",
					rt.backends[i].Label(), len(stats[j].DF), len(global.DF))
			}
			global.NumDocs += stats[j].NumDocs
			for t, df := range stats[j].DF {
				global.DF[t] += df
			}
			alive = append(alive, i)
		}
		if len(alive) == 0 {
			return nil, firstErr
		}
		idxs = alive
		req.Global = global
	}

	// Scatter phase.
	results := make([]*SearchResponse, len(idxs))
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	for j, i := range idxs {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			results[j], errs[j] = rt.backends[i].Search(ctx, index, req)
		}(j, i)
	}
	wg.Wait()

	// Gather: merge local top-ks through the same heap the engine's own
	// rankers use, so cross-shard ties break identically (score desc, pk
	// asc).  Each pk exists on exactly one shard, so no dedup is needed —
	// byPK only carries each hit's row payload across the heap.
	heap := topk.New(req.K)
	byPK := make(map[int64]SearchHit)
	merged := &SearchResponse{}
	succeeded := 0
	var firstErr error
	for j, i := range idxs {
		if errs[j] != nil {
			rt.noteShardErr(i, errs[j])
			partial = true
			if firstErr == nil {
				firstErr = errs[j]
			}
			continue
		}
		succeeded++
		res := results[j]
		merged.PostingsScanned += res.PostingsScanned
		merged.Stopped = merged.Stopped || res.Stopped
		partial = partial || res.Partial
		for _, h := range res.Hits {
			if heap.Add(h.PK, h.Score) {
				byPK[h.PK] = h
			}
		}
	}
	if succeeded == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, &backendError{status: http.StatusServiceUnavailable, msg: "router: no shard answered"}
	}
	ranked := heap.Results()
	merged.Hits = make([]SearchHit, len(ranked))
	for i, r := range ranked {
		hit := byPK[r.Doc]
		hit.Score = r.Score
		merged.Hits[i] = hit
	}
	merged.Partial = partial
	return merged, nil
}

func (rt *Router) handleTermStats(w http.ResponseWriter, r *http.Request) {
	var req TermStatsRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	query, err := normalizeQuery(req.Query, req.Terms)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	idxs := rt.healthyShards()
	if len(idxs) == 0 {
		writeError(w, http.StatusServiceUnavailable, errors.New("router: no healthy shards"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	index := r.PathValue("name")
	stats := make([]*TermStatsResponse, len(idxs))
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	for j, i := range idxs {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			stats[j], errs[j] = rt.backends[i].TermStats(ctx, index, query)
		}(j, i)
	}
	wg.Wait()
	total := TermStatsResponse{}
	succeeded := 0
	var firstErr error
	for j, i := range idxs {
		if errs[j] != nil {
			rt.noteShardErr(i, errs[j])
			if firstErr == nil {
				firstErr = errs[j]
			}
			continue
		}
		if total.DF == nil {
			total.DF = make([]int64, len(stats[j].DF))
		} else if len(stats[j].DF) != len(total.DF) {
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("router: shard %s analyzed %d terms, others %d (analyzer mismatch?)",
					rt.backends[i].Label(), len(stats[j].DF), len(total.DF)))
			return
		}
		total.NumDocs += stats[j].NumDocs
		for t, df := range stats[j].DF {
			total.DF[t] += df
		}
		succeeded++
	}
	if succeeded == 0 {
		writeError(w, httpStatusOf(firstErr), firstErr)
		return
	}
	writeJSON(w, http.StatusOK, total)
}

// --- writes ----------------------------------------------------------------------

// routingColumn resolves which column routes a table's rows: the configured
// override, or the first column (the primary key).
func (rt *Router) routingColumn(schema *SchemaResponse) (string, error) {
	if col, ok := rt.opts.RoutingColumns[schema.Table]; ok {
		for _, c := range schema.Columns {
			if c.Name == col {
				if c.Kind != "int64" {
					return "", &backendError{
						status: http.StatusInternalServerError,
						msg:    fmt.Sprintf("router: routing column %q of table %q is %s, need int64", col, schema.Table, c.Kind),
					}
				}
				return col, nil
			}
		}
		return "", &backendError{
			status: http.StatusInternalServerError,
			msg:    fmt.Sprintf("router: routing column %q not in table %q", col, schema.Table),
		}
	}
	if len(schema.Columns) == 0 {
		return "", &backendError{status: http.StatusInternalServerError, msg: fmt.Sprintf("router: table %q has no columns", schema.Table)}
	}
	return schema.Columns[0].Name, nil
}

// routingKey extracts a row's routing value from its JSON object.
func routingKey(obj map[string]json.RawMessage, col string) (int64, error) {
	raw, ok := obj[col]
	if !ok {
		return 0, fmt.Errorf("missing routing column %q", col)
	}
	var n json.Number
	if err := json.Unmarshal(raw, &n); err != nil {
		return 0, fmt.Errorf("routing column %q: want an integer: %w", col, err)
	}
	v, err := n.Int64()
	if err != nil {
		return 0, fmt.Errorf("routing column %q: want an integer: %w", col, err)
	}
	return v, nil
}

// shardFor returns the owning shard for a routing key, failing if that
// shard is currently down: a write must reach its owner or fail loudly,
// never land elsewhere.
func (rt *Router) shardFor(key int64) (int, error) {
	i := rt.part.Shard(key, len(rt.backends))
	if !rt.health[i].up.Load() {
		return 0, &backendError{
			status: http.StatusServiceUnavailable,
			msg:    fmt.Sprintf("router: shard %d (%s) owning key %d is down", i, rt.backends[i].Label(), key),
		}
	}
	return i, nil
}

func (rt *Router) handleInsertRows(w http.ResponseWriter, r *http.Request) {
	var req InsertRowsRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("\"rows\" must be a non-empty array"))
		return
	}
	table := r.PathValue("name")
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	schema, err := rt.tableSchema(ctx, table)
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	col, err := rt.routingColumn(schema)
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	perShard := map[int][]map[string]json.RawMessage{}
	for i, obj := range req.Rows {
		key, err := routingKey(obj, col)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("row %d: %w", i, err))
			return
		}
		shard, err := rt.shardFor(key)
		if err != nil {
			writeError(w, httpStatusOf(err), fmt.Errorf("row %d: %w", i, err))
			return
		}
		perShard[shard] = append(perShard[shard], obj)
	}
	// Per-shard sub-batches run in parallel; there is no cross-shard
	// transaction, so on failure the error names the shard and rows on
	// other shards may already be in (same applied-up-to contract as the
	// single-node batch endpoint).
	if err := rt.fanOutWrites(ctx, perShard, func(shard int, rows []map[string]json.RawMessage) error {
		return rt.backends[shard].InsertRows(ctx, table, rows)
	}); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, InsertRowsResponse{Inserted: len(req.Rows)})
}

// fanOutWrites runs one write call per involved shard in parallel and joins
// failures.
func (rt *Router) fanOutWrites(ctx context.Context, perShard map[int][]map[string]json.RawMessage, call func(shard int, rows []map[string]json.RawMessage) error) error {
	var wg sync.WaitGroup
	errsMu := sync.Mutex{}
	var errs []error
	for shard, rows := range perShard {
		wg.Add(1)
		go func(shard int, rows []map[string]json.RawMessage) {
			defer wg.Done()
			if err := call(shard, rows); err != nil {
				errsMu.Lock()
				errs = append(errs, fmt.Errorf("shard %d: %w", shard, err))
				errsMu.Unlock()
			}
		}(shard, rows)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("\"ops\" must be a non-empty array"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	// Route each op: inserts and pk-routed tables go straight to the owning
	// shard; an update/delete on a table routed by a non-pk column is
	// broadcast to every shard with ignore_missing — only the owner has the
	// row, and the Matched totals verify afterwards that some shard did.
	perShard := map[int][]BatchOp{}
	broadcasts := 0
	for i, op := range req.Ops {
		schema, err := rt.tableSchema(ctx, op.Table)
		if err != nil {
			writeError(w, httpStatusOf(err), fmt.Errorf("op %d: %w", i, err))
			return
		}
		col, err := rt.routingColumn(schema)
		if err != nil {
			writeError(w, httpStatusOf(err), fmt.Errorf("op %d: %w", i, err))
			return
		}
		switch op.Op {
		case "insert":
			if op.Row == nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: insert requires \"row\"", i))
				return
			}
			key, err := routingKey(op.Row, col)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: %w", i, err))
				return
			}
			shard, err := rt.shardFor(key)
			if err != nil {
				writeError(w, httpStatusOf(err), fmt.Errorf("op %d: %w", i, err))
				return
			}
			perShard[shard] = append(perShard[shard], op)
		case "update", "delete":
			if op.PK == nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: %s requires \"pk\"", i, op.Op))
				return
			}
			if col == schema.Columns[0].Name {
				shard, err := rt.shardFor(*op.PK)
				if err != nil {
					writeError(w, httpStatusOf(err), fmt.Errorf("op %d: %w", i, err))
					return
				}
				perShard[shard] = append(perShard[shard], op)
				break
			}
			// Routed by a non-pk column the op does not carry: broadcast.
			bop := op
			bop.IgnoreMissing = true
			broadcasts++
			for shard := range rt.backends {
				if !rt.health[shard].up.Load() {
					writeError(w, http.StatusServiceUnavailable,
						fmt.Errorf("op %d: broadcast needs every shard, shard %d (%s) is down", i, shard, rt.backends[shard].Label()))
					return
				}
				perShard[shard] = append(perShard[shard], bop)
			}
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown op %q (want insert, update or delete)", i, op.Op))
			return
		}
	}
	matched := atomic.Int64{}
	var wg sync.WaitGroup
	errsMu := sync.Mutex{}
	var errs []error
	for shard, ops := range perShard {
		wg.Add(1)
		go func(shard int, ops []BatchOp) {
			defer wg.Done()
			resp, err := rt.backends[shard].Batch(ctx, ops)
			if err != nil {
				errsMu.Lock()
				errs = append(errs, fmt.Errorf("shard %d: %w", shard, err))
				errsMu.Unlock()
				return
			}
			matched.Add(int64(resp.Matched))
		}(shard, ops)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	// Every routed op matched (or its shard's batch would have failed) and
	// every broadcast op should have matched on exactly its owner, so a
	// shortfall means some broadcast op's row exists on no shard at all.
	if int(matched.Load()) < len(req.Ops) {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("router: %d op(s) matched no shard (row not found)", len(req.Ops)-int(matched.Load())))
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Applied: len(req.Ops), Matched: int(matched.Load())})
}

// --- index & tenant lifecycle ------------------------------------------------------

// requireAllShards verifies that every shard is currently healthy; index and
// tenant lifecycle operations fan out to the whole cluster, and running one
// with a shard missing would leave that shard permanently inconsistent with
// the rest (searches scatter to every shard, so a shard without the index
// would fail every query against it).
func (rt *Router) requireAllShards() error {
	for i := range rt.backends {
		if !rt.health[i].up.Load() {
			return &backendError{
				status: http.StatusServiceUnavailable,
				msg: fmt.Sprintf("router: lifecycle operation needs every shard, shard %d (%s) is down",
					i, rt.backends[i].Label()),
			}
		}
	}
	return nil
}

// fanOutLifecycle runs call on every shard in parallel and joins failures.
func (rt *Router) fanOutLifecycle(call func(shard int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(rt.backends))
	for i := range rt.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := call(i); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// handleCreateIndex fans an online index build out to every shard.  Each
// shard backfills from its own slice of the data; searches scattering during
// the build cleanly miss on shards that have not published yet and observe
// the fully backfilled index afterwards.  There is no cross-shard
// transaction: a failed shard leaves the name existing on some shards only,
// and the error names which — re-issuing the create is safe on shards where
// it already exists (409) and completes the rest.
func (rt *Router) handleCreateIndex(w http.ResponseWriter, r *http.Request) {
	var req CreateIndexRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Name = qualifyName(r, req.Name)
	req.Table = qualifyName(r, req.Table)
	if err := rt.requireAllShards(); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	// No per-shard timeout here: a backfill over a large shard legitimately
	// takes longer than a search round-trip, so only the client's own
	// context bounds it.
	if err := rt.fanOutLifecycle(func(shard int) error {
		return rt.backends[shard].CreateIndex(r.Context(), req)
	}); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateIndexResponse{
		Name:   req.Name,
		Table:  req.Table,
		Column: req.Column,
		Method: req.Method,
	})
}

// handleDropIndex fans an index drop out to every shard.  A shard that no
// longer has the index reports not_found, which the drop treats as success
// on that shard (drops are idempotent); only if every shard misses does the
// router answer 404.
func (rt *Router) handleDropIndex(w http.ResponseWriter, r *http.Request) {
	name := qualifyName(r, r.PathValue("name"))
	if err := rt.requireAllShards(); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	missing := atomic.Int64{}
	err := rt.fanOutLifecycle(func(shard int) error {
		err := rt.backends[shard].DropIndex(ctx, name)
		var be *backendError
		if errors.As(err, &be) && be.status == http.StatusNotFound {
			missing.Add(1)
			return nil
		}
		return err
	})
	if err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	if int(missing.Load()) == len(rt.backends) {
		writeNotFound(w, "index", name, fmt.Errorf("router: no shard has an index named %q", name))
		return
	}
	writeJSON(w, http.StatusOK, DropIndexResponse{Dropped: name})
}

// handleCreateTenant fans a tenant registration out to every shard, so each
// shard meters its own slice of the tenant's rows against the same quota.
func (rt *Router) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := rt.requireAllShards(); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
	defer cancel()
	if err := rt.fanOutLifecycle(func(shard int) error {
		return rt.backends[shard].CreateTenant(ctx, req)
	}); err != nil {
		writeError(w, httpStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": req.Name})
}

// handleChanges: a cross-shard change stream would need commit-ordered
// merging across engines, which the scatter-gather layer does not provide;
// subscribers connect to the shard that owns their keys instead.
func (rt *Router) handleChanges(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotImplemented,
		errors.New("router: change streaming is per-shard; connect to a shard server directly"))
}
