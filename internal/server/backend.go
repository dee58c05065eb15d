package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"
)

// Backend is one shard as the Router sees it: every operation of the API
// with a transport-neutral signature over the same JSON DTOs the wire uses.
// Two implementations exist — EngineBackend calls an in-process core.Engine
// directly, HTTPBackend speaks to a remote svrserve — and the Router cannot
// tell them apart, so a deployment can start with in-process shards and
// split them across machines without touching routing logic.  Names arrive
// tenant-qualified and bodies validated: the Router's handlers do both once.
type Backend interface {
	// Label identifies the shard in health and stats output.
	Label() string
	// Search takes a canonical request: Query set, Terms empty, K bounded.
	Search(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error)
	TermStats(ctx context.Context, index, query string) (*TermStatsResponse, error)
	InsertRows(ctx context.Context, table string, rows []map[string]json.RawMessage) error
	Batch(ctx context.Context, ops []BatchOp) (*BatchResponse, error)
	Schema(ctx context.Context, table string) (*SchemaResponse, error)
	Stats(ctx context.Context) (map[string]any, error)
	// CreateIndex builds a text index on this shard and reports it with the
	// resolved method; the Router fans it out to every shard so searches can
	// scatter uniformly afterwards.
	CreateIndex(ctx context.Context, req CreateIndexRequest) (*CreateIndexResponse, error)
	// DropIndex removes a text index from this shard.
	DropIndex(ctx context.Context, name string) error
	// CreateTenant registers (or re-quotas) a tenant on this shard and
	// reports its quota and this shard's usage.
	CreateTenant(ctx context.Context, req CreateTenantRequest) (*TenantStatus, error)
	// Tenants lists every registered tenant with this shard's usage.
	Tenants(ctx context.Context) ([]TenantStatus, error)
	// Changes streams the table's committed changes to emit, in commit
	// order, until ctx ends (nil) or emit fails (its error).  subscribed is
	// called once, before any emit, when the subscription is in place: every
	// change committed after it returns is delivered or announced by a
	// Lagged marker.  An error before subscribed means nothing was
	// subscribed.
	Changes(ctx context.Context, table string, subscribed func(), emit func(ChangeEvent) error) error
	// Health returns nil when the shard can serve.
	Health(ctx context.Context) error
	Close() error
}

// backendError is an error that knows its HTTP status — for HTTPBackend,
// the status the remote shard already chose; for a request the front end or
// an in-process backend rejects itself, the status that rejection earns.
// resp, when set, is the structured error body to forward verbatim (a
// shard's not_found payload keeps its code/resource/name fields through
// every hop).
type backendError struct {
	status int
	msg    string
	resp   *ErrorResponse
}

func (e *backendError) Error() string { return e.msg }

// notFoundBackendErr builds the structured 404 of a missing index or table
// as a backendError, so it reaches the client in the same shape over any
// number of hops.
func notFoundBackendErr(resource, name string, err error) *backendError {
	return &backendError{
		status: http.StatusNotFound,
		msg:    err.Error(),
		resp: &ErrorResponse{
			Error:    err.Error(),
			Code:     "not_found",
			Resource: resource,
			Name:     name,
		},
	}
}

// --- HTTP backend ----------------------------------------------------------------

// HTTPBackend serves a shard over the HTTP API of a remote svrserve — the
// same API this package serves, so shards stack.  Searches are
// hedged: when a response has not arrived within the hedge threshold a
// second identical request is issued and the first answer wins, trading a
// bounded amount of duplicate read work for immunity to one slow replica
// hiccup (searches are idempotent; writes are never hedged).
type HTTPBackend struct {
	label   string
	baseURL string
	client  *http.Client
	hedge   time.Duration

	hedged atomic.Uint64
}

// NewHTTPBackend builds a backend for a remote shard at baseURL (e.g.
// "http://127.0.0.1:8081").  hedge <= 0 disables hedged searches.
func NewHTTPBackend(baseURL string, hedge time.Duration) *HTTPBackend {
	return &HTTPBackend{
		label:   baseURL,
		baseURL: trimTrailingSlash(baseURL),
		client:  &http.Client{},
		hedge:   hedge,
	}
}

func trimTrailingSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

func (b *HTTPBackend) Label() string { return b.label }

// HedgedSearches reports how many hedge requests this backend has issued.
func (b *HTTPBackend) HedgedSearches() uint64 { return b.hedged.Load() }

// send runs one request and returns the open 2xx response; non-2xx bodies
// become backendErrors carrying the remote status.
func (b *HTTPBackend) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, b.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", b.label, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return resp, nil
	}
	defer resp.Body.Close()
	var er ErrorResponse
	msg := resp.Status
	var structured *ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
		msg = er.Error
		if er.Code != "" {
			// Keep the shard's structured body so the Router can forward
			// the same shape it would have produced itself.
			structured = &er
		}
	}
	return nil, &backendError{status: resp.StatusCode, msg: fmt.Sprintf("shard %s: %s", b.label, msg), resp: structured}
}

// do runs one request and decodes the 2xx response body into out.
func (b *HTTPBackend) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := b.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shard %s: decoding response: %w", b.label, err)
	}
	return nil
}

func (b *HTTPBackend) Search(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error) {
	path := "/v1/indexes/" + url.PathEscape(index) + "/search"
	attempt := func() (*SearchResponse, error) {
		var out SearchResponse
		if err := b.do(ctx, http.MethodPost, path, req, &out); err != nil {
			return nil, err
		}
		return &out, nil
	}
	if b.hedge <= 0 {
		return attempt()
	}
	type result struct {
		out *SearchResponse
		err error
	}
	// Buffered so the loser's send never blocks a goroutine after return.
	ch := make(chan result, 2)
	launch := func() {
		out, err := attempt()
		ch <- result{out, err}
	}
	go launch()
	timer := time.NewTimer(b.hedge)
	defer timer.Stop()
	launched, received := 1, 0
	var firstErr error
	for received < launched {
		select {
		case res := <-ch:
			received++
			if res.err == nil {
				return res.out, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
		case <-timer.C:
			if launched == 1 {
				launched++
				b.hedged.Add(1)
				go launch()
			}
		}
	}
	return nil, firstErr
}

func (b *HTTPBackend) TermStats(ctx context.Context, index, query string) (*TermStatsResponse, error) {
	var out TermStatsResponse
	path := "/v1/indexes/" + url.PathEscape(index) + "/termstats"
	if err := b.do(ctx, http.MethodPost, path, TermStatsRequest{Query: query}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) InsertRows(ctx context.Context, table string, rows []map[string]json.RawMessage) error {
	path := "/v1/tables/" + url.PathEscape(table) + "/rows"
	return b.do(ctx, http.MethodPost, path, InsertRowsRequest{Rows: rows}, nil)
}

func (b *HTTPBackend) Batch(ctx context.Context, ops []BatchOp) (*BatchResponse, error) {
	var out BatchResponse
	if err := b.do(ctx, http.MethodPost, "/v1/batch", BatchRequest{Ops: ops}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) Schema(ctx context.Context, table string) (*SchemaResponse, error) {
	var out SchemaResponse
	path := "/v1/tables/" + url.PathEscape(table) + "/schema"
	if err := b.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) Stats(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := b.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (b *HTTPBackend) CreateIndex(ctx context.Context, req CreateIndexRequest) (*CreateIndexResponse, error) {
	var out CreateIndexResponse
	if err := b.do(ctx, http.MethodPost, "/v1/indexes", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) DropIndex(ctx context.Context, name string) error {
	return b.do(ctx, http.MethodDelete, "/v1/indexes/"+url.PathEscape(name), nil, nil)
}

func (b *HTTPBackend) CreateTenant(ctx context.Context, req CreateTenantRequest) (*TenantStatus, error) {
	var out TenantStatus
	if err := b.do(ctx, http.MethodPost, "/v1/tenants", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (b *HTTPBackend) Tenants(ctx context.Context) ([]TenantStatus, error) {
	var out TenantsResponse
	if err := b.do(ctx, http.MethodGet, "/v1/tenants", nil, &out); err != nil {
		return nil, err
	}
	return out.Tenants, nil
}

// Changes reads the shard's NDJSON change stream; the shard's 200 is the
// subscription (it answers only once its listener is registered).
func (b *HTTPBackend) Changes(ctx context.Context, table string, subscribed func(), emit func(ChangeEvent) error) error {
	resp, err := b.send(ctx, http.MethodGet, "/v1/changes?table="+url.QueryEscape(table), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	subscribed()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber() // row cells pass through verbatim, int64 keys included
	for {
		var ev ChangeEvent
		if err := dec.Decode(&ev); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// The shard ended the stream (it is draining or gone).
			return fmt.Errorf("shard %s: change stream: %w", b.label, err)
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
}

func (b *HTTPBackend) Health(ctx context.Context) error {
	return b.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Close releases idle connections; the remote shard's lifecycle is its own.
func (b *HTTPBackend) Close() error {
	b.client.CloseIdleConnections()
	return nil
}
