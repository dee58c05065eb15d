package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/topk"
)

// Router serves the HTTP JSON API over a set of shard backends.  There is
// one handler set: every request is decoded, tenant-qualified and validated
// once, then partitioned, scattered and merged by code that is the identity
// when there is one backend — so a single engine (New) is simply the
// one-shard case (NewRouter over one EngineBackend), not a second
// implementation.
//
// Writes are routed: each row lives on exactly one shard, chosen by a
// partitioner over the row's routing key.  Searches scatter to every
// healthy shard and gather through the same top-k merge discipline the
// engine uses internally, with one extra wrinkle for TF-IDF: document
// frequencies are collected from all shards first and the summed totals are
// pinned into each shard's request, so sharded ranking is byte-identical to
// a single engine holding all the data (see search for the argument).
//
// Availability beats completeness on the read path: a dead shard removes
// its documents from the result and sets "partial": true, it does not fail
// the search.  The write path is the opposite — a write for a dead shard's
// key fails loudly, because silently rerouting it would strand the row
// where reads will never look.
//
// Lifecycle: New/NewRouter → Start (or Handler, for an external listener) →
// Shutdown; see lifecycle.go for the drain order that keeps every response
// whole.
type Router struct {
	backends []Backend
	// all is 0..len(backends)-1, the target list of every whole-cluster
	// fan-out.
	all     []int
	part    core.Partitioner
	opts    RouterOptions
	metrics *Registry
	mux     *http.ServeMux
	lifecycle

	// down[i] holds why backends[i] is believed down, nil while it is up;
	// flipped by the prober and by search failures, read lock-free on every
	// request.
	down []atomic.Pointer[string]

	// stop ends the health prober; probing waits it out during shutdown.
	stop    chan struct{}
	probing sync.WaitGroup

	// schemas caches table schemas fetched from shards.  Tables are created
	// at load time and never altered over this API, so the cache cannot go
	// stale within a router's lifetime.
	schemaMu sync.Mutex
	schemas  map[string]*SchemaResponse
}

// Server is the Router, under the name a deployment over one engine knows
// it by.
type Server = Router

// Options configures a Server over one engine (New).
type Options struct {
	// ReadTimeout and WriteTimeout bound request parsing and response
	// writing when the server owns the listener (Start).  Zero means no
	// timeout, matching net/http.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// RouterOptions configures a Router over shard backends (NewRouter).
type RouterOptions struct {
	// ReadTimeout and WriteTimeout bound request parsing and response
	// writing when the router owns the listener (Start).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// ShardTimeout bounds every per-shard sub-request; zero means 10s.  A
	// shard slower than this is treated exactly like a dead one: excluded,
	// result marked partial.  With one backend there is no scatter to bound
	// and the request's own context is the only clock.
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

// New builds a Server over one engine, which it owns: Shutdown closes it.
func New(engine *core.Engine, opts Options) *Server {
	rt, err := NewRouter([]Backend{NewEngineBackend("engine", engine, true)},
		RouterOptions{ReadTimeout: opts.ReadTimeout, WriteTimeout: opts.WriteTimeout})
	if err != nil {
		// One backend under the default partitioner, which core registers
		// at init: only a bug can fail this.
		panic(err)
	}
	return rt
}

// NewRouter builds a Router over the given shard backends.  Backend order
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
		backends:  backends,
		all:       make([]int, len(backends)),
		part:      part,
		opts:      opts,
		metrics:   NewRegistry(),
		mux:       http.NewServeMux(),
		lifecycle: lifecycle{serveDone: make(chan struct{})},
		// Every shard starts presumed up (nil), so the first requests after
		// boot are not spuriously partial while the prober warms up.
		down:    make([]atomic.Pointer[string], len(backends)),
		stop:    make(chan struct{}),
		schemas: map[string]*SchemaResponse{},
	}
	for i := range rt.all {
		rt.all[i] = i
	}
	rt.routes()
	rt.probing.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// --- fan-out ---------------------------------------------------------------------

// fanOut calls fn(j, shards[j]) for every j and returns once all have
// returned.  It is the one place requests go parallel: one target runs
// inline on the caller's goroutine, several run concurrently.
func fanOut(shards []int, fn func(j, shard int)) {
	if len(shards) == 1 {
		fn(0, shards[0])
		return
	}
	var wg sync.WaitGroup
	for j, i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(j, i)
		}()
	}
	wg.Wait()
}

// eachShard fans call out over the listed shards and joins the failures.
func (rt *Router) eachShard(shards []int, call func(shard int) error) error {
	errs := make([]error, len(shards))
	fanOut(shards, func(j, i int) {
		if err := call(i); err != nil {
			errs[j] = rt.labelErr(i, err)
		}
	})
	return errors.Join(errs...)
}

// askShards runs call on every listed shard and returns the answers with
// the shards that gave them, in shard order.  Failures are noted against
// the shard's health; the first is returned for when nobody answers (no
// shard listed: none was healthy enough to ask).
func askShards[T any](rt *Router, idxs []int, call func(shard int) (T, error)) (answers []T, alive []int, firstErr error) {
	if len(idxs) == 0 {
		return nil, nil, errNoHealthyShards
	}
	got := make([]T, len(idxs))
	errs := make([]error, len(idxs))
	fanOut(idxs, func(j, i int) { got[j], errs[j] = call(i) })
	// Answers are compacted in place: the write index never passes the read.
	answers, alive = got[:0], make([]int, 0, len(idxs))
	for j, i := range idxs {
		if errs[j] != nil {
			rt.noteShardErr(i, errs[j])
			if firstErr == nil {
				firstErr = errs[j]
			}
			continue
		}
		answers = append(answers, got[j])
		alive = append(alive, i)
	}
	return answers, alive, firstErr
}

// labelErr names the shard a failure came from — when there is more than one
// to tell apart; one backend's errors read exactly as the engine put them.
func (rt *Router) labelErr(shard int, err error) error {
	if len(rt.backends) == 1 {
		return err
	}
	return fmt.Errorf("shard %d: %w", shard, err)
}

// shardCtx bounds a request's per-shard sub-requests by the shard timeout.
// One backend has no scatter to bound, so it costs no timer either.
func (rt *Router) shardCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if len(rt.backends) == 1 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), rt.opts.ShardTimeout)
}

// involved lists the shards a partitioned write touches.
func involved[T any](perShard [][]T) []int {
	var shards []int
	for i, part := range perShard {
		if len(part) > 0 {
			shards = append(shards, i)
		}
	}
	return shards
}

// --- health ----------------------------------------------------------------------

func (rt *Router) probeLoop() {
	defer rt.probing.Done()
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), rt.opts.ShardTimeout)
			fanOut(rt.all, func(_, i int) {
				if err := rt.backends[i].Health(ctx); err != nil {
					rt.markDown(i, err)
				} else {
					rt.down[i].Store(nil)
				}
			})
			cancel()
		}
	}
}

func (rt *Router) markDown(i int, err error) {
	why := err.Error()
	rt.down[i].Store(&why)
}

// noteShardErr marks a shard down only for failures that say the shard
// itself is unhealthy: transport errors and 5xx responses.  A 4xx means the
// shard answered — it just rejected the request (unknown index, bad query) —
// and marking it down would eject every healthy shard the first time a
// client typos an index name.
func (rt *Router) noteShardErr(i int, err error) {
	if httpStatusOf(err) >= 500 {
		rt.markDown(i, err)
	}
}

// healthyShards returns the indices of shards currently believed up.
func (rt *Router) healthyShards() []int {
	idxs := make([]int, 0, len(rt.backends))
	for i := range rt.backends {
		if rt.down[i].Load() == nil {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// requireAllShards verifies that every shard is currently healthy.  Index
// and tenant lifecycle operations fan out to the whole cluster, and running
// one with a shard missing would leave that shard permanently inconsistent
// with the rest (searches scatter to every shard, so a shard without the
// index would fail every query against it); a change stream missing a shard
// would silently drop that shard's rows.
func (rt *Router) requireAllShards(what string) error {
	for i := range rt.backends {
		if rt.down[i].Load() != nil {
			return &backendError{
				status: http.StatusServiceUnavailable,
				msg:    fmt.Sprintf("%s needs every shard, shard %d (%s) is down", what, i, rt.backends[i].Label()),
			}
		}
	}
	return nil
}

var errNoHealthyShards = &backendError{status: http.StatusServiceUnavailable, msg: "no healthy shards"}

// --- routes ----------------------------------------------------------------------

// routes installs every endpoint, instrumented with the metrics registry.
func (rt *Router) routes() {
	register := func(pattern string, h http.HandlerFunc) {
		rt.mux.HandleFunc(pattern, rt.metrics.instrument(pattern, h))
	}
	register("GET /healthz", rt.handleHealthz)
	register("GET /v1/stats", route(http.StatusOK, rt.handleStats))
	register("GET /v1/tables/{name}/schema", route(http.StatusOK, rt.handleSchema))
	register("POST /v1/indexes", route(http.StatusCreated, rt.handleCreateIndex))
	register("DELETE /v1/indexes/{name}", route(http.StatusOK, rt.handleDropIndex))
	register("POST /v1/indexes/{name}/search", route(http.StatusOK, rt.handleSearch))
	register("POST /v1/indexes/{name}/termstats", route(http.StatusOK, rt.handleTermStats))
	register("POST /v1/tables/{name}/rows", route(http.StatusOK, rt.handleInsertRows))
	register("POST /v1/batch", route(http.StatusOK, rt.handleBatch))
	register("POST /v1/tenants", route(http.StatusCreated, rt.handleCreateTenant))
	register("GET /v1/tenants", route(http.StatusOK, rt.handleListTenants))
	register("GET /v1/changes", rt.handleChanges)
}

// route adapts one operation to a handler.  It is the one place a request
// body is decoded and a response encoded: handle receives the decoded body
// of a POST (routes without a body take struct{}) and returns the response
// body for the given success status, or an error writeError maps to its own.
func route[Req any](success int, handle func(r *http.Request, req *Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if r.Method == http.MethodPost {
			if err := decodeJSON(r, &req); err != nil {
				writeError(w, err)
				return
			}
		}
		resp, err := handle(r, &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, success, resp)
	}
}

// handleHealthz is the liveness probe: it reads the prober's flags and never
// fans out, so it stays cheap and answers while shards hang.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := make([]map[string]any, len(rt.backends))
	healthy := 0
	for i, b := range rt.backends {
		why := rt.down[i].Load()
		entry := map[string]any{"shard": i, "label": b.Label(), "healthy": why == nil}
		if why == nil {
			healthy++
		} else {
			entry["error"] = *why
		}
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
		"uptime_seconds": rt.metrics.Uptime().Seconds(),
		"shards":         shards,
		"healthy_shards": healthy,
	})
}

// handleStats serves the engine counters summed over the shards at the top
// level (indexes, pool, pagefile, durability — the keys of "indexes" are the
// index names), each shard's own payload under "shards", and the front end's
// own uptime, endpoint metrics, cluster summary and per-tenant slices.
func (rt *Router) handleStats(r *http.Request, _ *struct{}) (any, error) {
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	perShard := make([]map[string]any, len(rt.backends))
	fanOut(rt.all, func(_, i int) {
		st, err := rt.backends[i].Stats(ctx)
		if err != nil {
			st = map[string]any{"error": err.Error()}
		}
		perShard[i] = st
	})
	shards := map[string]any{}
	for i, b := range rt.backends {
		shards[fmt.Sprintf("shard-%d (%s)", i, b.Label())] = perShard[i]
	}
	body := sumStats(perShard)
	body["uptime_seconds"] = rt.metrics.Uptime().Seconds()
	body["cluster"] = map[string]any{
		"shards":         len(rt.backends),
		"healthy_shards": len(rt.healthyShards()),
		"partitioner":    rt.part.Name(),
	}
	body["shards"] = shards
	// Per-tenant latency cells live in the same registry under a label
	// prefix; split them into the tenants section so the endpoints list
	// stays per-route.
	endpoints := make([]EndpointSnapshot, 0)
	latencies := map[string]*EndpointSnapshot{}
	for _, snap := range rt.metrics.Snapshot() {
		if t, ok := strings.CutPrefix(snap.Route, tenantRoutePrefix); ok {
			latencies[t] = &snap
			continue
		}
		endpoints = append(endpoints, snap)
	}
	body["endpoints"] = endpoints
	// Stats keep serving when no shard can list tenants: the section is
	// empty rather than the scrape failed.
	statuses, _ := rt.tenants(ctx)
	type tenantStats struct {
		TenantStatus
		Latency *EndpointSnapshot `json:"latency,omitempty"`
	}
	tenants := make([]tenantStats, len(statuses))
	for i, st := range statuses {
		tenants[i] = tenantStats{st, latencies[st.Name]}
	}
	body["tenants"] = tenants
	return body, nil
}

// sumStats builds the top-level counters from the shards' payloads, leaving
// out shards that failed to report.  One shard's counters are the totals as
// they stand; several are summed, with each index's compression_ratio
// recomputed as a ratio of sums, not a sum of ratios.
func sumStats(perShard []map[string]any) map[string]any {
	if len(perShard) == 1 && perShard[0]["error"] == nil {
		// Cloned because the caller adds its own sections (one of which
		// holds perShard[0] itself).
		return maps.Clone(perShard[0])
	}
	body := map[string]any{}
	for _, st := range perShard {
		if _, failed := st["error"]; !failed {
			mergeStatsInto(body, st)
		}
	}
	indexes, _ := body["indexes"].(map[string]any)
	for _, v := range indexes {
		if idx, ok := v.(map[string]any); ok {
			raw, _ := toFloat(idx["long_list_raw_bytes"])
			stored, _ := toFloat(idx["long_list_bytes"])
			ratio := 0.0
			if raw > 0 && stored > 0 {
				ratio = raw / stored
			}
			idx["compression_ratio"] = ratio
		}
	}
	return body
}

// mergeStatsInto recursively sums src's numeric leaves into dst, so the
// totals aggregate every shard's payload without enumerating the schema.
// Non-numeric leaves (method names) keep the first shard's value.  Keys that
// do not sum are skipped: a shard that is itself a svrserve wraps its engine
// counters in its own front-end sections (uptime, endpoints, cluster,
// shards, tenants); epochs are unrelated per-shard counters, read them
// under "shards"; compression_ratio is sumStats' to recompute.
func mergeStatsInto(dst, src map[string]any) {
	for key, sv := range src {
		switch key {
		case "uptime_seconds", "endpoints", "cluster", "shards", "tenants", "epoch", "compression_ratio":
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

func (rt *Router) handleSchema(r *http.Request, _ *struct{}) (any, error) {
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	return rt.tableSchema(ctx, qualifyName(r, r.PathValue("name")))
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
	var firstErr error = errNoHealthyShards
	for n, i := range rt.healthyShards() {
		schema, err := rt.backends[i].Schema(ctx, table)
		if err == nil {
			rt.schemaMu.Lock()
			rt.schemas[table] = schema
			rt.schemaMu.Unlock()
			return schema, nil
		}
		if n == 0 {
			firstErr = err
		}
	}
	return nil, firstErr
}

// --- search ----------------------------------------------------------------------

func (rt *Router) handleSearch(r *http.Request, req *SearchRequest) (any, error) {
	query, err := normalizeQuery(req.Query, req.Terms)
	if err != nil {
		return nil, err
	}
	k, err := boundSearchK(req.K)
	if err != nil {
		return nil, err
	}
	// Forward a canonical request: one query string and an explicit k, so
	// every shard tokenizes identically and the merge heap matches theirs.
	req.Query, req.Terms, req.K = query, nil, k
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	return rt.search(ctx, qualifyName(r, r.PathValue("name")), *req)
}

// search fans a search out to every healthy shard and merges the top-k.
// Correctness leans on two invariants: each document lives on exactly one
// shard, so the global top-k is a subset of the union of local top-ks; and
// when TF-IDF is in play the gather phase pins cluster-wide document
// frequencies into every shard's request, so per-shard scores are the scores
// a single engine would have computed and merging reduces to the usual
// deterministic heap order (score desc, then primary key asc).
func (rt *Router) search(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error) {
	if len(rt.backends) == 1 {
		// One shard's document frequencies are the collection's and its
		// top-k is the top-k: nothing to gather, scatter or merge.
		return rt.backends[0].Search(ctx, index, req)
	}
	idxs := rt.healthyShards()
	partial := len(idxs) < len(rt.backends)

	// Gather phase: sum per-shard document frequencies so each shard ranks
	// with collection-global IDF.  Only TF-IDF ranking consults collection
	// statistics; plain SVR-score ranking skips the extra round-trip.
	if req.WithTermScores && req.Global == nil {
		total, alive, err := rt.gatherTermStats(ctx, idxs, index, req.Query)
		if err != nil {
			return nil, err
		}
		// A shard that cannot answer the gather cannot score consistently
		// either; drop it from the scatter too.
		partial = partial || len(alive) < len(idxs)
		idxs = alive
		global := GlobalStats(*total)
		req.Global = &global
	}

	// Scatter phase.
	results, alive, err := askShards(rt, idxs, func(i int) (*SearchResponse, error) {
		return rt.backends[i].Search(ctx, index, req)
	})
	if len(alive) == 0 {
		return nil, err
	}
	partial = partial || len(alive) < len(idxs)

	// Merge local top-ks through the same heap the engine's own rankers
	// use, so cross-shard ties break identically (score desc, pk asc).  Each
	// pk exists on exactly one shard, so no dedup is needed — byPK only
	// carries each hit's row payload across the heap.
	heap := topk.New(req.K)
	byPK := make(map[int64]SearchHit)
	merged := &SearchResponse{}
	for _, res := range results {
		merged.PostingsScanned += res.PostingsScanned
		merged.Stopped = merged.Stopped || res.Stopped
		partial = partial || res.Partial
		for _, h := range res.Hits {
			if heap.Add(h.PK, h.Score) {
				byPK[h.PK] = h
			}
		}
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

// gatherTermStats sums the query's document frequencies over the listed
// shards.  It returns the total over the shards that answered and which
// those were.
func (rt *Router) gatherTermStats(ctx context.Context, idxs []int, index, query string) (*TermStatsResponse, []int, error) {
	stats, alive, err := askShards(rt, idxs, func(i int) (*TermStatsResponse, error) {
		return rt.backends[i].TermStats(ctx, index, query)
	})
	if len(alive) == 0 {
		return nil, nil, err
	}
	total := &TermStatsResponse{DF: make([]int64, len(stats[0].DF))}
	for j, st := range stats {
		if len(st.DF) != len(total.DF) {
			// Shards disagree on the query's term list — an analyzer
			// mismatch.  Global IDF would be garbage; fail loudly.
			return nil, nil, fmt.Errorf("shard %s analyzed %d terms, others %d (analyzer mismatch?)",
				rt.backends[alive[j]].Label(), len(st.DF), len(total.DF))
		}
		total.NumDocs += st.NumDocs
		for t, df := range st.DF {
			total.DF[t] += df
		}
	}
	return total, alive, nil
}

func (rt *Router) handleTermStats(r *http.Request, req *TermStatsRequest) (any, error) {
	query, err := normalizeQuery(req.Query, req.Terms)
	if err != nil {
		return nil, err
	}
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	total, _, err := rt.gatherTermStats(ctx, rt.healthyShards(), qualifyName(r, r.PathValue("name")), query)
	return total, err
}

// --- writes ----------------------------------------------------------------------

// routingColumn resolves which column routes a table's rows: the configured
// override, or the first column (the primary key).
func (rt *Router) routingColumn(schema *SchemaResponse) (string, error) {
	misconfigured := func(format string, args ...any) error {
		return &backendError{status: http.StatusInternalServerError, msg: fmt.Sprintf(format, args...)}
	}
	if col, ok := rt.opts.RoutingColumns[schema.Table]; ok {
		for _, c := range schema.Columns {
			if c.Name == col {
				if c.Kind != "int64" {
					return "", misconfigured("routing column %q of table %q is %s, need int64", col, schema.Table, c.Kind)
				}
				return col, nil
			}
		}
		return "", misconfigured("routing column %q not in table %q", col, schema.Table)
	}
	if len(schema.Columns) == 0 {
		return "", misconfigured("table %q has no columns", schema.Table)
	}
	return schema.Columns[0].Name, nil
}

// routingKey extracts a row's routing value from its JSON object.
func routingKey(obj map[string]json.RawMessage, col string) (int64, error) {
	raw, ok := obj[col]
	if !ok {
		return 0, badRequest("missing routing column %q", col)
	}
	var n json.Number
	if err := json.Unmarshal(raw, &n); err != nil {
		return 0, badRequest("routing column %q: want an integer: %v", col, err)
	}
	v, err := n.Int64()
	if err != nil {
		return 0, badRequest("routing column %q: want an integer: %v", col, err)
	}
	return v, nil
}

// shardFor returns the owning shard for a routing key, failing if that
// shard is currently down: a write must reach its owner or fail loudly,
// never land elsewhere.
func (rt *Router) shardFor(key int64) (int, error) {
	i := rt.part.Shard(key, len(rt.backends))
	if rt.down[i].Load() != nil {
		return 0, &backendError{
			status: http.StatusServiceUnavailable,
			msg:    fmt.Sprintf("shard %d (%s) owning key %d is down", i, rt.backends[i].Label(), key),
		}
	}
	return i, nil
}

// routeOp returns the shard owning op's row, or -1 when only a broadcast can
// find it: an update or delete of a table routed by a non-pk column, which
// the op does not carry.
func (rt *Router) routeOp(ctx context.Context, op BatchOp) (int, error) {
	schema, err := rt.tableSchema(ctx, op.Table)
	if err != nil {
		return 0, err
	}
	col, err := rt.routingColumn(schema)
	if err != nil {
		return 0, err
	}
	switch op.Op {
	case "insert":
		if op.Row == nil {
			return 0, badRequest("insert requires \"row\"")
		}
		key, err := routingKey(op.Row, col)
		if err != nil {
			return 0, err
		}
		return rt.shardFor(key)
	case "update", "delete":
		if op.PK == nil {
			return 0, badRequest("%s requires \"pk\"", op.Op)
		}
		if col != schema.Columns[0].Name {
			return -1, nil
		}
		return rt.shardFor(*op.PK)
	default:
		return 0, badRequest("unknown op %q (want insert, update or delete)", op.Op)
	}
}

func (rt *Router) handleInsertRows(r *http.Request, req *InsertRowsRequest) (any, error) {
	if len(req.Rows) == 0 {
		return nil, badRequest("\"rows\" must be a non-empty array")
	}
	// The rows are a batch of inserts: the batch path places them, admits
	// them against a tenant's quota and applies each shard's share in one
	// ApplyBatch.
	table := qualifyName(r, r.PathValue("name"))
	ops := make([]BatchOp, len(req.Rows))
	for i, row := range req.Rows {
		ops[i] = BatchOp{Op: "insert", Table: table, Row: row}
	}
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	perShard, err := rt.partitionOps(ctx, ops)
	if err != nil {
		return nil, err
	}
	// Per-shard sub-batches run in parallel; there is no cross-shard
	// transaction, so on failure the error names the shard and rows on
	// other shards may already be in (the same applied-up-to contract one
	// shard's batch has).
	err = rt.eachShard(involved(perShard), func(i int) error {
		_, err := rt.backends[i].Batch(ctx, perShard[i])
		return err
	})
	return InsertRowsResponse{Inserted: len(req.Rows)}, err
}

// partitionOps routes each op of a batch: inserts and pk-routed tables go
// straight to the owning shard; an op only a broadcast can place goes to
// every shard with ignore_missing — only the owner has the row, and the
// Matched totals verify afterwards that some shard did.  One backend takes
// the batch as it came.
func (rt *Router) partitionOps(ctx context.Context, ops []BatchOp) ([][]BatchOp, error) {
	if len(rt.backends) == 1 {
		return [][]BatchOp{ops}, nil
	}
	perShard := make([][]BatchOp, len(rt.backends))
	for i, op := range ops {
		shard, err := rt.routeOp(ctx, op)
		if err == nil && shard < 0 {
			err = rt.requireAllShards("broadcast")
			op.IgnoreMissing = true
		}
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		if shard >= 0 {
			perShard[shard] = append(perShard[shard], op)
			continue
		}
		for to := range perShard {
			perShard[to] = append(perShard[to], op)
		}
	}
	return perShard, nil
}

func (rt *Router) handleBatch(r *http.Request, req *BatchRequest) (any, error) {
	if len(req.Ops) == 0 {
		return nil, badRequest("\"ops\" must be a non-empty array")
	}
	// mustMatch counts the ops whose row has to exist somewhere: all but
	// those the client itself flagged ignore_missing.
	mustMatch := 0
	for i := range req.Ops {
		req.Ops[i].Table = qualifyName(r, req.Ops[i].Table)
		if !req.Ops[i].IgnoreMissing {
			mustMatch++
		}
	}
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	perShard, err := rt.partitionOps(ctx, req.Ops)
	if err != nil {
		return nil, err
	}
	var matched atomic.Int64
	if err := rt.eachShard(involved(perShard), func(i int) error {
		resp, err := rt.backends[i].Batch(ctx, perShard[i])
		if err != nil {
			return err
		}
		matched.Add(int64(resp.Matched))
		return nil
	}); err != nil {
		return nil, err
	}
	// A routed op that misses fails its shard's batch above, and a
	// broadcast op should have matched on exactly its owner, so a shortfall
	// means some broadcast op's row exists on no shard at all.
	n := int(matched.Load())
	if n < mustMatch {
		return nil, &backendError{status: http.StatusNotFound,
			msg: fmt.Sprintf("%d op(s) matched no shard (row not found)", mustMatch-n)}
	}
	return BatchResponse{Applied: len(req.Ops), Matched: n}, nil
}

// --- index & tenant lifecycle ------------------------------------------------------

// handleCreateIndex fans an online index build out to every shard.  Each
// shard backfills from its own slice of the data; searches scattering during
// the build cleanly miss on shards that have not published yet and observe
// the fully backfilled index afterwards.  There is no cross-shard
// transaction: a failed shard leaves the name existing on some shards only,
// and the error names which — re-issuing the create is safe on shards where
// it already exists (409) and completes the rest.
func (rt *Router) handleCreateIndex(r *http.Request, req *CreateIndexRequest) (any, error) {
	req.Name = qualifyName(r, req.Name)
	req.Table = qualifyName(r, req.Table)
	if err := rt.requireAllShards("index creation"); err != nil {
		return nil, err
	}
	// No per-shard timeout here: a backfill over a large shard legitimately
	// takes longer than a search round-trip, so only the client's own
	// context bounds it.
	created := make([]*CreateIndexResponse, len(rt.backends))
	err := rt.eachShard(rt.all, func(i int) (err error) {
		created[i], err = rt.backends[i].CreateIndex(r.Context(), *req)
		return err
	})
	// Every shard resolved the same request the same way; answer with one.
	return created[0], err
}

// handleDropIndex fans an index drop out to every shard.  A shard that no
// longer has the index reports not_found, which the drop treats as success
// on that shard (drops are idempotent); only if every shard misses does the
// router answer 404, with the first shard's structured body.
func (rt *Router) handleDropIndex(r *http.Request, _ *struct{}) (any, error) {
	name := qualifyName(r, r.PathValue("name"))
	if err := rt.requireAllShards("index drop"); err != nil {
		return nil, err
	}
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	missing := make([]error, len(rt.backends))
	err := rt.eachShard(rt.all, func(i int) error {
		err := rt.backends[i].DropIndex(ctx, name)
		if err != nil && httpStatusOf(err) == http.StatusNotFound {
			missing[i], err = err, nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if !slices.Contains(missing, nil) {
		return nil, missing[0]
	}
	return DropIndexResponse{Dropped: name}, nil
}

// handleCreateTenant fans a tenant registration out to every shard, so each
// shard meters its own slice of the tenant's rows against the same quota:
// quotas are per shard, usage is reported summed.
func (rt *Router) handleCreateTenant(r *http.Request, req *CreateTenantRequest) (any, error) {
	if err := rt.requireAllShards("tenant registration"); err != nil {
		return nil, err
	}
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	registered := make([][]TenantStatus, len(rt.backends))
	if err := rt.eachShard(rt.all, func(i int) error {
		st, err := rt.backends[i].CreateTenant(ctx, *req)
		if err == nil {
			registered[i] = []TenantStatus{*st}
		}
		return err
	}); err != nil {
		return nil, err
	}
	return sumTenants(registered)[0], nil
}

func (rt *Router) handleListTenants(r *http.Request, _ *struct{}) (any, error) {
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	tenants, err := rt.tenants(ctx)
	return TenantsResponse{Tenants: tenants}, err
}

// tenants lists every tenant with its usage summed over the healthy shards
// that answer.
func (rt *Router) tenants(ctx context.Context) ([]TenantStatus, error) {
	lists, alive, err := askShards(rt, rt.healthyShards(), func(i int) ([]TenantStatus, error) {
		return rt.backends[i].Tenants(ctx)
	})
	if len(alive) == 0 {
		return nil, err
	}
	return sumTenants(lists), nil
}

// sumTenants merges per-shard tenant lists by name, in first-seen order:
// rows and bytes add up; the quota is the one every shard enforces on its
// own slice, so it is reported as registered, not multiplied.
func sumTenants(lists [][]TenantStatus) []TenantStatus {
	out := make([]TenantStatus, 0)
	at := map[string]int{}
	for _, list := range lists {
		for _, st := range list {
			i, seen := at[st.Name]
			if !seen {
				at[st.Name] = len(out)
				out = append(out, st)
				continue
			}
			out[i].Rows += st.Rows
			out[i].Bytes += st.Bytes
		}
	}
	return out
}

// --- change streams ----------------------------------------------------------------

// handleChanges serves one NDJSON stream of a table's changes: every shard's
// stream interleaved as events arrive.  Each shard delivers in its own
// commit order and each primary key lives on one shard, so per-key order
// holds; events of different shards carry no order between them.  The stream
// needs every shard (a missing one would silently thin it) and ends — for
// the client to reconnect — when one fails, the client goes away or the
// router drains.
func (rt *Router) handleChanges(w http.ResponseWriter, r *http.Request) {
	table := qualifyName(r, r.URL.Query().Get("table"))
	if table == "" {
		writeError(w, badRequest("query parameter \"table\" is required"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("response writer does not support streaming"))
		return
	}
	if err := rt.requireAllShards("a change stream"); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	events := make(chan ChangeEvent)
	subscribed := make(chan struct{}, len(rt.backends)) // one send per shard
	ended := make(chan error, len(rt.backends))         // one send per shard
	for _, b := range rt.backends {
		go func() {
			ended <- b.Changes(ctx, table, func() { subscribed <- struct{}{} }, func(ev ChangeEvent) error {
				select {
				case events <- ev:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
		}()
	}
	running := len(rt.backends)
	defer func() {
		cancel()
		for ; running > 0; running-- {
			<-ended
		}
	}()

	// Answer only once every shard is subscribed: a client that has seen
	// the 200 misses no change committed after it.
	for range rt.backends {
		select {
		case <-subscribed:
		case err := <-ended:
			running--
			if err != nil { // nil: the client went away mid-subscribe
				writeError(w, err)
			}
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)

	// The periodic tick bounds how long an idle stream can delay a graceful
	// shutdown or outlive a shard.
	drainTick := time.NewTicker(250 * time.Millisecond)
	defer drainTick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ended:
			running--
			return
		case <-drainTick.C:
			if rt.draining.Load() || len(rt.healthyShards()) < len(rt.backends) {
				return
			}
		case ev := <-events:
			if err := enc.Encode(ev); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
