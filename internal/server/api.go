package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"svrdb/internal/core"
	"svrdb/internal/relation"
)

// This file is the wire contract: the request and response bodies of every
// route, the one request decoder, the one response encoder and the mapping
// from engine errors to statuses.  The front end (router.go) and both
// backends (an in-process engine, a remote svrserve) share these types, so a
// body means the same thing on every hop.

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
// instead of its local slice.  A router over several shards gathers these
// from every shard and forwards the sum; a sharded search without them
// would rank by per-shard IDF and diverge from a one-shard run.
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
	// cover only the reachable ones.  One shard never sets it.
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
// table or tenant, whatever the number and kind of backends), so
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

// TenantsResponse is the body of GET /v1/tenants.
type TenantsResponse struct {
	Tenants []TenantStatus `json:"tenants"`
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

// --- validation --------------------------------------------------------------------

// badRequest builds the error of a request the front end itself rejects.
func badRequest(format string, args ...any) error {
	return &backendError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// normalizeQuery folds the query/terms alternative of the search and
// termstats bodies into one query string.
func normalizeQuery(query string, terms []string) (string, error) {
	if query == "" {
		if len(terms) == 0 {
			return "", badRequest("one of \"query\" or \"terms\" is required")
		}
		return strings.Join(terms, " "), nil
	}
	if len(terms) > 0 {
		return "", badRequest("\"query\" and \"terms\" are mutually exclusive")
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
		return 0, badRequest("k must be between 1 and %d", maxSearchK)
	}
	return k, nil
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
		return badRequest("invalid request body: %v", err)
	}
	// The body must be exactly one JSON document: trailing garbage or a
	// second concatenated document means a buggy client whose extra input
	// would otherwise be silently dropped.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return badRequest("invalid request body: trailing data after JSON document")
	}
	return nil
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

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// writeError answers a failed request: the status the error maps to (see
// httpStatusOf) and an ErrorResponse body.  A backend that already produced
// a structured error body (a shard's 404, say) has it forwarded verbatim, so
// the response carries the same shape over any number of hops.
func writeError(w http.ResponseWriter, err error) {
	var be *backendError
	if errors.As(err, &be) && be.resp != nil {
		writeJSON(w, httpStatusOf(err), *be.resp)
		return
	}
	writeJSON(w, httpStatusOf(err), ErrorResponse{Error: err.Error()})
}

// httpStatusOf maps a failure onto its HTTP status.  A backendError keeps
// the status it carries (a remote shard's, or the front end's own
// rejection); of engine errors, a request the engine rejected as invalid is
// 400, a missing row or table is 404, a duplicate primary key or existing
// index name is 409 (a client mistake, and one a blind retry would only
// repeat), an exceeded tenant quota is 429 (retrying helps only after the
// tenant frees space or buys quota), a closed engine is 503 (the server is
// going away), anything else is a plain 500.
func httpStatusOf(err error) int {
	var be *backendError
	switch {
	case errors.As(err, &be):
		return be.status
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
