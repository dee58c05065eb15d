package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/index"
	"svrdb/internal/relation"
)

// Server exposes a core.Engine over an HTTP JSON API.  One Server owns one
// engine: requests fan straight into the engine's goroutine-safe entry
// points (TextIndex.Search, Engine.ApplyBatch), so the HTTP layer adds
// routing, JSON codec work and metrics but no locking of its own.
//
// Lifecycle: New → Start (or Handler, for an external listener) → Shutdown.
// Shutdown is graceful and rides the engine's drain machinery: new requests
// are turned away with a clean 503 the moment draining begins, in-flight
// requests run to completion (http.Server.Shutdown waits for them), and only
// then is Engine.Close invoked — which drains index locks and runs the
// buffer-pool pin audit.  Within the shutdown context's deadline a request
// never observes a closed engine; a straggler past the deadline hits the
// engine's close fence and gets a clean 503 — never a torn response.
//
// The listener/drain machinery itself lives in lifecycle (shared with the
// shard Router); Server contributes the engine-backed routes and passes
// Engine.Close as the post-drain closer.
type Server struct {
	engine  *core.Engine
	metrics *Registry
	mux     *http.ServeMux
	life    *lifecycle
}

// Options configures a Server.
type Options struct {
	// ReadTimeout and WriteTimeout bound request parsing and response
	// writing when the server owns the listener (Start).  Zero means no
	// timeout, matching net/http.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// New builds a Server over an engine.
func New(engine *core.Engine, opts Options) *Server {
	s := &Server{
		engine:  engine,
		metrics: NewRegistry(),
		mux:     http.NewServeMux(),
		life:    newLifecycle(opts.ReadTimeout, opts.WriteTimeout),
	}
	s.routes()
	return s
}

// Handler returns the server's root handler: the route mux behind the
// draining fence.  Exposed so tests and embedding callers can serve it from
// their own listener.
func (s *Server) Handler() http.Handler {
	return s.life.fence(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The mux's built-in 404/405 responses are plain text; the API
		// contract says every non-2xx body is {"error":...} JSON, so those
		// defaults are rewritten on the way out and recorded under a
		// catch-all metrics label (they never reach an instrumented route).
		jw := &jsonErrorWriter{ResponseWriter: w}
		start := time.Now()
		s.mux.ServeHTTP(jw, r)
		if jw.rewrote {
			s.metrics.Observe("(unmatched)", jw.status, time.Since(start))
		}
	}))
}

// jsonErrorWriter rewrites net/http's plain-text 404 ("404 page not found")
// and 405 ("Method Not Allowed") default bodies into the API's JSON error
// shape.  The server's own handlers always set an application/json
// Content-Type before writing a header, so anything arriving at WriteHeader
// with those statuses and a different content type is a mux default.
type jsonErrorWriter struct {
	http.ResponseWriter
	status  int
	rewrote bool
}

func (w *jsonErrorWriter) WriteHeader(code int) {
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.rewrote = true
		w.status = code
		writeJSON(w.ResponseWriter, code, ErrorResponse{Error: http.StatusText(code)})
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if w.rewrote {
		// Swallow the plain-text default body; the JSON body is already out.
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the change-subscription stream
// can push lines through the error-rewriting wrapper.
func (w *jsonErrorWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Registry { return s.metrics }

// Engine returns the engine the server fronts.
func (s *Server) Engine() *core.Engine { return s.engine }

// Start listens on addr (e.g. ":8080", or "127.0.0.1:0" for an ephemeral
// port) and serves in a background goroutine.  It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	return s.life.start(addr, s.Handler())
}

// Done closes when the accept loop has exited — after Shutdown, or early if
// Serve failed.  A daemon selects on it alongside its signal channel.
func (s *Server) Done() <-chan struct{} { return s.life.done() }

// ServeErr reports why the accept loop exited; it is meaningful once Done
// is closed and nil for a clean shutdown.
func (s *Server) ServeErr() error { return s.life.serveError() }

// Shutdown drains and closes: the draining fence flips, in-flight handlers
// finish (up to ctx), then Engine.Close drains the index locks, surfaces
// maintenance errors, flushes dirty pages and audits buffer-pool pin
// accounting.  Idempotent; concurrent and repeated calls return the first
// call's result.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.life.shutdown(ctx, func() error {
		if err := s.engine.Close(); err != nil {
			return fmt.Errorf("server: engine close: %w", err)
		}
		return nil
	})
}

// routes installs every endpoint, instrumented with the metrics registry.
func (s *Server) routes() {
	register := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.metrics.instrument(pattern, h))
	}
	register("GET /healthz", s.handleHealthz)
	register("GET /v1/stats", s.handleStats)
	register("GET /v1/tables/{name}/schema", s.handleSchema)
	register("POST /v1/indexes", s.handleCreateIndex)
	register("DELETE /v1/indexes/{name}", s.handleDropIndex)
	register("POST /v1/indexes/{name}/search", s.handleSearch)
	register("POST /v1/indexes/{name}/termstats", s.handleTermStats)
	register("POST /v1/tables/{name}/rows", s.handleInsertRows)
	register("POST /v1/batch", s.handleBatch)
	register("POST /v1/tenants", s.handleCreateTenant)
	register("GET /v1/tenants", s.handleListTenants)
	register("GET /v1/changes", s.handleChanges)
}

// tenantHeader carries the caller's tenant.  It namespaces unqualified
// table and index names ("Reviews" becomes "<tenant>/Reviews", names already
// containing "/" pass through) and keys the per-tenant latency histograms —
// so multi-tenant clients use the plain API and never repeat the prefix.
const tenantHeader = "X-SVR-Tenant"

// qualifyName applies the request's tenant namespace to an unqualified name.
func qualifyName(r *http.Request, name string) string {
	if t := r.Header.Get(tenantHeader); t != "" && name != "" && !strings.Contains(name, "/") {
		return t + "/" + name
	}
	return name
}

// --- request/response types ------------------------------------------------------

// GlobalStats carries collection-wide term statistics with a search request,
// so TF-IDF ranking on one shard uses the cluster's document frequencies
// instead of its local slice.  The router gathers these from every shard's
// termstats endpoint and forwards the sum; a sharded search without them
// would rank by per-shard IDF and diverge from a single-engine run.
type GlobalStats struct {
	NumDocs int64   `json:"num_docs"`
	DF      []int64 `json:"df"`
}

// SearchRequest is the body of POST /v1/indexes/{name}/search.
type SearchRequest struct {
	// Query is the raw query text; Terms is the pre-tokenized alternative
	// (the load generator uses it).  Exactly one must be non-empty: a
	// request setting both is rejected rather than one being silently
	// ignored.
	Query string   `json:"query,omitempty"`
	Terms []string `json:"terms,omitempty"`
	// K is the number of results wanted; it defaults to 10.
	K int `json:"k,omitempty"`
	// Disjunctive selects OR semantics (default AND).
	Disjunctive bool `json:"disjunctive,omitempty"`
	// WithTermScores combines TF-IDF term scores with the SVR score
	// (requires a TermScore method).
	WithTermScores bool `json:"with_term_scores,omitempty"`
	// LoadRows also returns each hit's base-table row.
	LoadRows bool `json:"load_rows,omitempty"`
	// Global pins collection statistics for TF-IDF; shard routers set it,
	// direct clients leave it unset.
	Global *GlobalStats `json:"global,omitempty"`
}

// SearchHit is one ranked result.
type SearchHit struct {
	PK    int64          `json:"pk"`
	Score float64        `json:"score"`
	Row   map[string]any `json:"row,omitempty"`
}

// SearchResponse is the body returned by the search endpoint.
type SearchResponse struct {
	Hits            []SearchHit `json:"hits"`
	PostingsScanned int         `json:"postings_scanned"`
	Stopped         bool        `json:"stopped"`
	// Partial reports that some shards could not be consulted and the hits
	// cover only the reachable ones.  Single-engine responses never set it.
	Partial bool `json:"partial,omitempty"`
}

// TermStatsRequest is the body of POST /v1/indexes/{name}/termstats.
type TermStatsRequest struct {
	Query string   `json:"query,omitempty"`
	Terms []string `json:"terms,omitempty"`
}

// TermStatsResponse reports document frequencies for a query's distinct
// terms, in the same term order the search endpoint would use for the same
// query text.
type TermStatsResponse struct {
	NumDocs int64   `json:"num_docs"`
	DF      []int64 `json:"df"`
}

// SchemaColumn is one column of a table schema response.
type SchemaColumn struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// SchemaResponse is the body of GET /v1/tables/{name}/schema.
type SchemaResponse struct {
	Table   string         `json:"table"`
	Columns []SchemaColumn `json:"columns"`
}

// InsertRowsRequest is the body of POST /v1/tables/{name}/rows.
type InsertRowsRequest struct {
	Rows []map[string]json.RawMessage `json:"rows"`
}

// InsertRowsResponse reports how many rows were inserted.
type InsertRowsResponse struct {
	Inserted int `json:"inserted"`
}

// BatchOp is one operation of POST /v1/batch.
type BatchOp struct {
	// Op is "insert", "update" or "delete".
	Op    string `json:"op"`
	Table string `json:"table"`
	// Row carries a full row for insert.
	Row map[string]json.RawMessage `json:"row,omitempty"`
	// PK addresses the row for update and delete.  A pointer so that an
	// omitted field is distinguishable from primary key 0 — silently
	// defaulting to row 0 would make a client's forgotten "pk" mutate a
	// real row.
	PK *int64 `json:"pk,omitempty"`
	// Set carries the changed columns for update.
	Set map[string]json.RawMessage `json:"set,omitempty"`
	// IgnoreMissing makes an update or delete of an absent row a no-op
	// instead of an error.  The shard router sets it when broadcasting an
	// op to every shard (only the owner has the row; the rest must not
	// fail the batch).
	IgnoreMissing bool `json:"ignore_missing,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchResponse reports how many operations were applied.  Matched counts
// the ops whose target row existed here — with ignore_missing it can be
// lower than Applied, which the router uses to tell "the owning shard took
// it" from "no shard had that row".
type BatchResponse struct {
	Applied int `json:"applied"`
	Matched int `json:"matched"`
}

// ErrorResponse is the body of every non-2xx response.  Code, Resource and
// Name are set on structured errors (today: every 404 for a missing index,
// table or tenant, from both the single-engine server and the router), so
// clients can distinguish "that index does not exist" from other failures
// without parsing the human-readable message.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator; "not_found" today.
	Code string `json:"code,omitempty"`
	// Resource names what kind of thing was missing: "index", "table", "tenant".
	Resource string `json:"resource,omitempty"`
	// Name is the missing resource's (qualified) name.
	Name string `json:"name,omitempty"`
}

// CreateIndexRequest is the body of POST /v1/indexes: build a new text index
// online.  The build runs under the engine's batch lock — writers queue
// behind it like behind a long batch, searches keep serving throughout and
// observe the index only once it is fully backfilled.
type CreateIndexRequest struct {
	Name   string `json:"name"`
	Table  string `json:"table"`
	Column string `json:"column"`
	// Method selects the inverted-list structure ("id", "score",
	// "score-threshold", "chunk", "id-termscore", "chunk-termscore");
	// empty selects chunk, the paper's recommended method.
	Method string `json:"method,omitempty"`
	// Spec names a score specification registered on the engine (specs hold
	// Go functions and cannot travel in a request body).
	Spec string `json:"spec"`
	// Optional method knobs; zero values use the paper's defaults.
	ThresholdRatio float64 `json:"threshold_ratio,omitempty"`
	ChunkRatio     float64 `json:"chunk_ratio,omitempty"`
	MinChunkSize   int     `json:"min_chunk_size,omitempty"`
	FancyListSize  int     `json:"fancy_list_size,omitempty"`
}

// CreateIndexResponse is the body of a successful index creation.
type CreateIndexResponse struct {
	Name   string `json:"name"`
	Table  string `json:"table"`
	Column string `json:"column"`
	Method string `json:"method"`
}

// DropIndexResponse is the body of a successful DELETE /v1/indexes/{name}.
type DropIndexResponse struct {
	Dropped string `json:"dropped"`
}

// CreateTenantRequest is the body of POST /v1/tenants.  Zero quota fields
// mean unlimited on that axis; re-creating a tenant replaces its quota.
type CreateTenantRequest struct {
	Name     string `json:"name"`
	MaxRows  int64  `json:"max_rows,omitempty"`
	MaxBytes int64  `json:"max_bytes,omitempty"`
}

// TenantStatus is one tenant's registration and live usage, served by
// GET /v1/tenants and the stats endpoint's tenants section.
type TenantStatus struct {
	Name     string `json:"name"`
	MaxRows  int64  `json:"max_rows"`
	MaxBytes int64  `json:"max_bytes"`
	Rows     int64  `json:"rows"`
	Bytes    int64  `json:"bytes"`
}

// ChangeEvent is one line of the GET /v1/changes NDJSON stream.  A line with
// Lagged set means the subscriber fell behind the table's write rate and an
// unknown number of events were dropped — change delivery never blocks the
// engine's commit-ordered notification path on a slow client.
type ChangeEvent struct {
	Table  string         `json:"table,omitempty"`
	Kind   string         `json:"kind,omitempty"`
	PK     int64          `json:"pk,omitempty"`
	Row    map[string]any `json:"row,omitempty"`
	Lagged bool           `json:"lagged,omitempty"`
}

// --- handlers --------------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": s.metrics.Uptime().Seconds(),
		"indexes":        s.engine.TextIndexNames(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body := engineStatsPayload(s.engine)
	body["uptime_seconds"] = s.metrics.Uptime().Seconds()
	// Per-tenant latency cells live in the same registry under a label
	// prefix; split them into the tenants section so the endpoints list
	// stays per-route.
	endpoints := make([]EndpointSnapshot, 0)
	latencies := map[string]EndpointSnapshot{}
	for _, snap := range s.metrics.Snapshot() {
		if t, ok := strings.CutPrefix(snap.Route, tenantRoutePrefix); ok {
			latencies[t] = snap
			continue
		}
		endpoints = append(endpoints, snap)
	}
	body["endpoints"] = endpoints
	tenants := make([]map[string]any, 0)
	for _, st := range tenantStatuses(s.engine) {
		entry := map[string]any{
			"name":      st.Name,
			"max_rows":  st.MaxRows,
			"max_bytes": st.MaxBytes,
			"rows":      st.Rows,
			"bytes":     st.Bytes,
		}
		if lat, ok := latencies[st.Name]; ok {
			entry["latency"] = lat
		}
		tenants = append(tenants, entry)
	}
	body["tenants"] = tenants
	writeJSON(w, http.StatusOK, body)
}

// engineStatsPayload builds the engine half of the stats body: index,
// buffer-pool, pagefile and durability counters.  The single-engine handler
// adds uptime and endpoint metrics; the router serves it per shard under a
// "shards" section and aggregates the totals.
func engineStatsPayload(e *core.Engine) map[string]any {
	indexes := map[string]any{}
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			continue
		}
		st := ti.Stats()
		ratio := 0.0
		if st.LongListBytes > 0 && st.LongListRawBytes > 0 {
			ratio = float64(st.LongListRawBytes) / float64(st.LongListBytes)
		}
		indexes[name] = map[string]any{
			"method":                      st.Method,
			"long_list_bytes":             st.LongListBytes,
			"long_list_raw_bytes":         st.LongListRawBytes,
			"compression_ratio":           ratio,
			"pages_read":                  st.PagesRead,
			"short_list_entries":          st.ShortListEntries,
			"score_updates":               st.ScoreUpdates,
			"short_list_postings_written": st.ShortListPostingsWritten,
			"long_list_postings_written":  st.LongListPostingsWritten,
			"queries":                     st.Queries,
			"postings_scanned":            st.PostingsScanned,
			"table_patches":               st.TablePatches,
			"epoch":                       st.Epoch,
			"active_readers":              st.ActiveReaders,
			"retained_pages":              st.RetainedPages,
		}
	}
	pool := e.Pool()
	ps := pool.Stats()
	fs := pool.File().Stats()
	anchorBytes, dictRewrites := e.CatalogStats()
	return map[string]any{
		"indexes": indexes,
		"pool": map[string]any{
			"hits":          ps.Hits,
			"misses":        ps.Misses,
			"evictions":     ps.Evictions,
			"flushes":       ps.Flushes,
			"over_releases": ps.OverReleases,
		},
		"pagefile": map[string]any{
			"reads":         fs.Reads,
			"writes":        fs.Writes,
			"allocs":        fs.Allocs,
			"frees":         fs.Frees,
			"reuses":        fs.Reuses,
			"bytes_read":    fs.BytesRead,
			"bytes_written": fs.BytesWritten,
		},
		"durability": map[string]any{
			"commits":    fs.Commits,
			"wal_bytes":  fs.WALBytes,
			"fsyncs":     fs.Fsyncs,
			"recoveries": fs.Recoveries,
			"torn_pages": fs.TornPages,
			// The catalog's share of a commit: the anchor is rewritten by
			// every one, an index's dictionary chain only after its terms or
			// documents changed.
			"catalog_anchor_bytes": anchorBytes,
			"dictionary_rewrites":  dictRewrites,
		},
	}
}

// normalizeQuery folds the query/terms alternative into one query string and
// bounds k, sharing the validation between the search and termstats
// endpoints and the router.
func normalizeQuery(query string, terms []string) (string, error) {
	if query == "" {
		if len(terms) == 0 {
			return "", errors.New("one of \"query\" or \"terms\" is required")
		}
		return strings.Join(terms, " "), nil
	}
	if len(terms) > 0 {
		return "", errors.New("\"query\" and \"terms\" are mutually exclusive")
	}
	return query, nil
}

func boundSearchK(k int) (int, error) {
	if k == 0 {
		k = 10
	}
	if k < 1 || k > maxSearchK {
		// Bounding k here protects the daemon: the top-k heap preallocates
		// proportionally to k, so an unchecked client value could exhaust
		// memory with one request.
		return 0, fmt.Errorf("k must be between 1 and %d", maxSearchK)
	}
	return k, nil
}

// coreSearchRequest translates the JSON DTO into the engine's request type.
func coreSearchRequest(query string, k int, req SearchRequest) core.SearchRequest {
	creq := core.SearchRequest{
		Query:          query,
		K:              k,
		Disjunctive:    req.Disjunctive,
		WithTermScores: req.WithTermScores,
		LoadRows:       req.LoadRows,
	}
	if req.Global != nil {
		creq.Global = &index.GlobalStats{NumDocs: req.Global.NumDocs, DF: req.Global.DF}
	}
	return creq
}

// searchResponseFromResult renders an engine result as the wire response,
// resolving rows through the index's base table schema when requested.
func searchResponseFromResult(e *core.Engine, table string, res *core.SearchResult, loadRows bool) SearchResponse {
	resp := SearchResponse{
		Hits:            make([]SearchHit, len(res.Hits)),
		PostingsScanned: res.PostingsScanned,
		Stopped:         res.Stopped,
		Partial:         res.Partial,
	}
	var schema relation.Schema
	if loadRows {
		if tbl, err := e.DB().Table(table); err == nil {
			schema = tbl.Schema()
		}
	}
	for i, h := range res.Hits {
		resp.Hits[i] = SearchHit{PK: h.PK, Score: h.Score}
		if h.Row != nil && len(schema.Columns) > 0 {
			resp.Hits[i].Row = rowToJSON(schema, h.Row)
		}
	}
	return resp
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	name := qualifyName(r, r.PathValue("name"))
	ti, err := s.engine.TextIndex(name)
	if err != nil {
		writeNotFound(w, "index", name, err)
		return
	}
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
	res, err := ti.Search(coreSearchRequest(query, k, req))
	if err != nil {
		writeError(w, statusForEngineErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, searchResponseFromResult(s.engine, ti.Table(), res, req.LoadRows))
}

func (s *Server) handleTermStats(w http.ResponseWriter, r *http.Request) {
	name := qualifyName(r, r.PathValue("name"))
	ti, err := s.engine.TextIndex(name)
	if err != nil {
		writeNotFound(w, "index", name, err)
		return
	}
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
	numDocs, df, err := ti.TermStats(query)
	if err != nil {
		writeError(w, statusForEngineErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, TermStatsResponse{NumDocs: numDocs, DF: df})
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	name := qualifyName(r, r.PathValue("name"))
	tbl, err := s.engine.DB().Table(name)
	if err != nil {
		writeNotFound(w, "table", name, err)
		return
	}
	writeJSON(w, http.StatusOK, schemaResponse(name, tbl.Schema()))
}

func schemaResponse(table string, schema relation.Schema) SchemaResponse {
	resp := SchemaResponse{Table: table, Columns: make([]SchemaColumn, len(schema.Columns))}
	for i, col := range schema.Columns {
		kind := "string"
		switch col.Kind {
		case relation.KindInt64:
			kind = "int64"
		case relation.KindFloat64:
			kind = "float64"
		}
		resp.Columns[i] = SchemaColumn{Name: col.Name, Kind: kind}
	}
	return resp
}

// insertJSONRows decodes and inserts rows through one ApplyBatch; it is the
// shared body of the rows endpoint and the router's engine backend.  Decode
// errors surface as ErrInvalidRequest so both callers map them to 400.
func insertJSONRows(e *core.Engine, table string, jsonRows []map[string]json.RawMessage) error {
	tbl, err := e.DB().Table(table)
	if err != nil {
		return err
	}
	rows := make([]relation.Row, len(jsonRows))
	for i, obj := range jsonRows {
		row, err := rowFromJSON(tbl.Schema(), obj)
		if err != nil {
			return fmt.Errorf("%w: row %d: %s", core.ErrInvalidRequest, i, err)
		}
		rows[i] = row
	}
	// One ApplyBatch per request: the rows' index maintenance flushes
	// through the batched write pipeline instead of one tree round-trip
	// per row.  Rows are schema-validated above, but a runtime failure
	// (e.g. a duplicate primary key) has no rollback — rows before the
	// failing one stay inserted, and the error names where the batch
	// stopped.  The quota pre-check runs under the batch lock before any
	// mutation: an over-quota insert batch rejects atomically.
	var pre func() error
	if tenant := core.TenantOf(table); tenant != "" {
		var addBytes int64
		for _, row := range rows {
			addBytes += int64(core.EncodedRowSize(row))
		}
		pre = func() error {
			return e.CheckTenantQuota(tenant, int64(len(rows)), addBytes)
		}
	}
	return e.ApplyBatchChecked(pre, func() error {
		for i, row := range rows {
			if err := tbl.Insert(row); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
}

func (s *Server) handleInsertRows(w http.ResponseWriter, r *http.Request) {
	var req InsertRowsRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("\"rows\" must be a non-empty array"))
		return
	}
	if err := insertJSONRows(s.engine, qualifyName(r, r.PathValue("name")), req.Rows); err != nil {
		writeError(w, statusForEngineErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, InsertRowsResponse{Inserted: len(req.Rows)})
}

// applyJSONBatch binds and applies a batch of ops; it is the shared body of
// the batch endpoint and the router's engine backend.  It returns how many
// ops matched a row (inserts always match; ignore_missing updates and
// deletes of absent rows do not).
func applyJSONBatch(e *core.Engine, ops []BatchOp) (int, error) {
	// Schema-validate and bind every op before mutating anything, so a
	// malformed op (unknown table/column, wrong type, unknown op kind)
	// rejects the batch before any write.  Runtime failures inside the
	// batch (duplicate primary key, update/delete of a missing row) are a
	// different matter: the engine has no rollback, so ops before the
	// failing one stay applied and the error names the op that stopped the
	// batch — clients must treat a non-2xx as "applied up to the named op".
	matched := 0
	bound := make([]boundOp, len(ops))
	metered := false
	for i, op := range ops {
		b, err := bindOp(e, op, &matched)
		if err != nil {
			if !errors.Is(err, relation.ErrNotFound) {
				err = fmt.Errorf("%w: %s", core.ErrInvalidRequest, err)
			}
			return 0, fmt.Errorf("op %d: %w", i, err)
		}
		bound[i] = b
		metered = metered || b.tenant != ""
	}
	// Quota admission: under the batch lock (where no other batch can move
	// usage), sum every metered tenant's projected row/byte delta and check
	// it against its quota.  A failing check rejects the whole batch before
	// any op runs, so one tenant's over-quota batch never half-applies and
	// never disturbs other tenants' batches queued behind it.
	var pre func() error
	if metered {
		pre = func() error {
			type delta struct{ rows, bytes int64 }
			perTenant := map[string]*delta{}
			for _, b := range bound {
				if b.tenant == "" {
					continue
				}
				rows, bytes := b.delta()
				d := perTenant[b.tenant]
				if d == nil {
					d = &delta{}
					perTenant[b.tenant] = d
				}
				d.rows += rows
				d.bytes += bytes
			}
			for tenant, d := range perTenant {
				if err := e.CheckTenantQuota(tenant, d.rows, d.bytes); err != nil {
					return err
				}
			}
			return nil
		}
	}
	err := e.ApplyBatchChecked(pre, func() error {
		for i, b := range bound {
			if err := b.apply(); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return matched, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("\"ops\" must be a non-empty array"))
		return
	}
	for i := range req.Ops {
		req.Ops[i].Table = qualifyName(r, req.Ops[i].Table)
	}
	matched, err := applyJSONBatch(s.engine, req.Ops)
	if err != nil {
		writeError(w, statusForEngineErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Applied: len(req.Ops), Matched: matched})
}

// createJSONIndex validates a creation request and builds the index; shared
// by the single-engine handler and the router's engine backend.
func createJSONIndex(e *core.Engine, req CreateIndexRequest) error {
	if req.Name == "" || req.Table == "" || req.Column == "" {
		return fmt.Errorf("%w: \"name\", \"table\" and \"column\" are required", core.ErrInvalidRequest)
	}
	if req.Spec == "" {
		return fmt.Errorf("%w: \"spec\" must name a registered score spec (one of %v)",
			core.ErrInvalidRequest, e.SpecNames())
	}
	_, err := e.CreateTextIndex(req.Name, req.Table, req.Column, core.IndexOptions{
		Method:         core.MethodKind(req.Method),
		SpecName:       req.Spec,
		ThresholdRatio: req.ThresholdRatio,
		ChunkRatio:     req.ChunkRatio,
		MinChunkSize:   req.MinChunkSize,
		FancyListSize:  req.FancyListSize,
	})
	return err
}

func (s *Server) handleCreateIndex(w http.ResponseWriter, r *http.Request) {
	var req CreateIndexRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Name = qualifyName(r, req.Name)
	req.Table = qualifyName(r, req.Table)
	if err := createJSONIndex(s.engine, req); err != nil {
		if errors.Is(err, relation.ErrNotFound) {
			writeNotFound(w, "table", req.Table, err)
			return
		}
		writeError(w, statusForEngineErr(err), err)
		return
	}
	ti, err := s.engine.TextIndex(req.Name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateIndexResponse{
		Name:   req.Name,
		Table:  req.Table,
		Column: req.Column,
		Method: ti.Method().Name(),
	})
}

func (s *Server) handleDropIndex(w http.ResponseWriter, r *http.Request) {
	name := qualifyName(r, r.PathValue("name"))
	if err := s.engine.DropTextIndex(name); err != nil {
		if errors.Is(err, relation.ErrNotFound) {
			writeNotFound(w, "index", name, err)
			return
		}
		writeError(w, statusForEngineErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, DropIndexResponse{Dropped: name})
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := createJSONTenant(s.engine, req); err != nil {
		writeError(w, statusForEngineErr(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, tenantStatus(s.engine, req.Name))
}

// createJSONTenant registers the tenant and, on durable engines, persists
// the registration immediately through an empty batch (the catalog commit
// rides the batch path), so a quota survives a crash that follows it.
func createJSONTenant(e *core.Engine, req CreateTenantRequest) error {
	quota := core.TenantQuota{MaxRows: req.MaxRows, MaxBytes: req.MaxBytes}
	if err := e.CreateTenant(req.Name, quota); err != nil {
		return err
	}
	return e.ApplyBatch(func() error { return nil })
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": tenantStatuses(s.engine)})
}

func tenantStatus(e *core.Engine, name string) TenantStatus {
	quota, _ := e.TenantQuotaOf(name)
	usage := e.TenantUsageOf(name)
	return TenantStatus{
		Name:     name,
		MaxRows:  quota.MaxRows,
		MaxBytes: quota.MaxBytes,
		Rows:     usage.Rows,
		Bytes:    usage.Bytes,
	}
}

func tenantStatuses(e *core.Engine) []TenantStatus {
	names := e.TenantNames()
	out := make([]TenantStatus, len(names))
	for i, n := range names {
		out[i] = tenantStatus(e, n)
	}
	return out
}

// changeStreamBuffer bounds each subscriber's queue.  The table's listener
// enqueues without blocking: a subscriber slower than the write rate loses
// events and is told so via a lagged marker, rather than ever stalling the
// engine's commit-ordered notification path.
const changeStreamBuffer = 256

func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	table := qualifyName(r, r.URL.Query().Get("table"))
	if table == "" {
		writeError(w, http.StatusBadRequest, errors.New("query parameter \"table\" is required"))
		return
	}
	tbl, err := s.engine.DB().Table(table)
	if err != nil {
		writeNotFound(w, "table", table, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer does not support streaming"))
		return
	}
	schema := tbl.Schema()

	ch := make(chan relation.Change, changeStreamBuffer)
	var lagged atomic.Bool
	handle := tbl.OnChange(func(c relation.Change) {
		select {
		case ch <- c:
		default:
			lagged.Store(true)
		}
	})
	defer tbl.RemoveListener(handle)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)

	// Streams end when the client disconnects or the server starts
	// draining; the periodic tick bounds how long an idle stream can delay
	// a graceful shutdown.
	drainTick := time.NewTicker(250 * time.Millisecond)
	defer drainTick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-drainTick.C:
			if s.life.isDraining() || s.engine.Closed() {
				return
			}
		case c := <-ch:
			if lagged.Swap(false) {
				if err := enc.Encode(ChangeEvent{Lagged: true}); err != nil {
					return
				}
			}
			ev := ChangeEvent{Table: c.Table, PK: c.PK}
			switch c.Kind {
			case relation.ChangeInsert:
				ev.Kind = "insert"
			case relation.ChangeUpdate:
				ev.Kind = "update"
			case relation.ChangeDelete:
				ev.Kind = "delete"
			}
			if c.New != nil {
				ev.Row = rowToJSON(schema, c.New)
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// boundOp is one schema-validated batch op: the closure that applies it,
// plus — for ops on tenant-namespaced tables — the tenant it is metered
// against and a delta function projecting its row/byte footprint change.
// delta is only called under the batch lock, where the rows it reads cannot
// move before apply runs.
type boundOp struct {
	apply  func() error
	tenant string
	delta  func() (rows, bytes int64)
}

// bindOp resolves one batch op against the schema and returns the closure
// that applies it.  matched is incremented by the closure when the op finds
// its target row.
func bindOp(e *core.Engine, op BatchOp, matched *int) (boundOp, error) {
	tbl, err := e.DB().Table(op.Table)
	if err != nil {
		return boundOp{}, err
	}
	b := boundOp{tenant: core.TenantOf(op.Table)}
	switch op.Op {
	case "insert":
		if op.Row == nil {
			return boundOp{}, errors.New("insert requires \"row\"")
		}
		row, err := rowFromJSON(tbl.Schema(), op.Row)
		if err != nil {
			return boundOp{}, err
		}
		b.delta = func() (int64, int64) { return 1, int64(core.EncodedRowSize(row)) }
		b.apply = func() error {
			if err := tbl.Insert(row); err != nil {
				return err
			}
			*matched++
			return nil
		}
		return b, nil
	case "update":
		if op.PK == nil {
			return boundOp{}, errors.New("update requires \"pk\"")
		}
		if len(op.Set) == 0 {
			return boundOp{}, errors.New("update requires a non-empty \"set\"")
		}
		set, err := setFromJSON(tbl.Schema(), op.Set)
		if err != nil {
			return boundOp{}, err
		}
		pk, ignore := *op.PK, op.IgnoreMissing
		b.delta = func() (int64, int64) {
			old, err := tbl.Get(pk)
			if err != nil {
				return 0, 0
			}
			updated := applySet(tbl.Schema(), old, set)
			return 0, int64(core.EncodedRowSize(updated)) - int64(core.EncodedRowSize(old))
		}
		b.apply = func() error {
			err := tbl.Update(pk, set)
			if err == nil {
				*matched++
				return nil
			}
			if ignore && errors.Is(err, relation.ErrNotFound) {
				return nil
			}
			return err
		}
		return b, nil
	case "delete":
		if op.PK == nil {
			return boundOp{}, errors.New("delete requires \"pk\"")
		}
		pk, ignore := *op.PK, op.IgnoreMissing
		b.delta = func() (int64, int64) {
			old, err := tbl.Get(pk)
			if err != nil {
				return 0, 0
			}
			return -1, -int64(core.EncodedRowSize(old))
		}
		b.apply = func() error {
			err := tbl.Delete(pk)
			if err == nil {
				*matched++
				return nil
			}
			if ignore && errors.Is(err, relation.ErrNotFound) {
				return nil
			}
			return err
		}
		return b, nil
	default:
		return boundOp{}, fmt.Errorf("unknown op %q (want insert, update or delete)", op.Op)
	}
}

// applySet projects an update onto a copy of a row, for quota byte-delta
// estimation; unknown columns were already rejected by setFromJSON.
func applySet(schema relation.Schema, old relation.Row, set map[string]relation.Value) relation.Row {
	updated := make(relation.Row, len(old))
	copy(updated, old)
	for name, v := range set {
		if idx, err := schema.ColumnIndex(name); err == nil && idx < len(updated) {
			updated[idx] = v
		}
	}
	return updated
}

// --- JSON plumbing ---------------------------------------------------------------

// maxBodyBytes bounds request bodies; a row batch far past this belongs in
// the bulk loader, not an HTTP request.
const maxBodyBytes = 32 << 20

// maxSearchK bounds the per-request result count.
const maxSearchK = 10000

func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	// The body must be exactly one JSON document: trailing garbage or a
	// second concatenated document means a buggy client whose extra input
	// would otherwise be silently dropped.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("invalid request body: trailing data after JSON document")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	// A backend that already produced a structured error body (a shard's
	// 404, say) has it forwarded verbatim, so router responses carry the
	// same shape as single-engine ones.
	var be *backendError
	if errors.As(err, &be) && be.resp != nil {
		writeJSON(w, status, *be.resp)
		return
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// writeNotFound writes the structured 404 body: both the single-engine
// server and the router emit this exact shape for a missing index, table or
// tenant, so clients (and the router tests) can rely on it regardless of
// deployment mode.
func writeNotFound(w http.ResponseWriter, resource, name string, err error) {
	writeJSON(w, http.StatusNotFound, ErrorResponse{
		Error:    err.Error(),
		Code:     "not_found",
		Resource: resource,
		Name:     name,
	})
}

// statusForEngineErr maps engine errors onto HTTP statuses: a request the
// engine rejected as invalid is 400, a missing row or table is 404, a
// duplicate primary key or existing index name is 409 (a client mistake,
// and one a blind retry would only repeat), an exceeded tenant quota is 429
// (retrying helps only after the tenant frees space or buys quota), a
// closed engine is 503 (the server is going away), anything else is a
// plain 500.
func statusForEngineErr(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, relation.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, relation.ErrDuplicateKey), errors.Is(err, core.ErrExists):
		return http.StatusConflict
	case errors.Is(err, core.ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// rowToJSON renders a row as a column-name-keyed object.
func rowToJSON(schema relation.Schema, row relation.Row) map[string]any {
	obj := make(map[string]any, len(row))
	for i, v := range row {
		if i >= len(schema.Columns) {
			break
		}
		switch v.Kind {
		case relation.KindInt64:
			obj[schema.Columns[i].Name] = v.I
		case relation.KindFloat64:
			obj[schema.Columns[i].Name] = v.F
		default:
			obj[schema.Columns[i].Name] = v.S
		}
	}
	return obj
}

// rowFromJSON decodes a full row: every schema column must be present.
func rowFromJSON(schema relation.Schema, obj map[string]json.RawMessage) (relation.Row, error) {
	row := make(relation.Row, len(schema.Columns))
	for i, col := range schema.Columns {
		raw, ok := obj[col.Name]
		if !ok {
			return nil, fmt.Errorf("missing column %q", col.Name)
		}
		v, err := valueFromJSON(col, raw)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	if len(obj) > len(schema.Columns) {
		for name := range obj {
			if _, err := schema.ColumnIndex(name); err != nil {
				return nil, fmt.Errorf("unknown column %q", name)
			}
		}
	}
	return row, nil
}

// setFromJSON decodes an update's changed-column map.
func setFromJSON(schema relation.Schema, obj map[string]json.RawMessage) (map[string]relation.Value, error) {
	set := make(map[string]relation.Value, len(obj))
	for name, raw := range obj {
		idx, err := schema.ColumnIndex(name)
		if err != nil {
			return nil, err
		}
		v, err := valueFromJSON(schema.Columns[idx], raw)
		if err != nil {
			return nil, err
		}
		set[name] = v
	}
	return set, nil
}

// valueFromJSON decodes one cell according to its column kind.
func valueFromJSON(col relation.Column, raw json.RawMessage) (relation.Value, error) {
	switch col.Kind {
	case relation.KindInt64:
		var n json.Number
		if err := json.Unmarshal(raw, &n); err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want an integer: %w", col.Name, err)
		}
		i, err := n.Int64()
		if err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want an integer: %w", col.Name, err)
		}
		return relation.Int(i), nil
	case relation.KindFloat64:
		var n json.Number
		if err := json.Unmarshal(raw, &n); err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want a number: %w", col.Name, err)
		}
		f, err := n.Float64()
		if err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want a number: %w", col.Name, err)
		}
		return relation.Float(f), nil
	case relation.KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want a string: %w", col.Name, err)
		}
		return relation.Str(s), nil
	default:
		return relation.Value{}, fmt.Errorf("column %q: unsupported kind", col.Name)
	}
}
