package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
)

// docsSpec is the score spec of the test corpus: a document's SVR score is
// its own "val" column.
func docsSpec() view.Spec {
	return view.Spec{Components: []view.Component{view.OwnColumn("Docs", "val")}}
}

// newDocsEngine builds a small engine: a Docs(id, body, val) table holding
// the corpus rows keep selects (nil keeps all), a chunk index "docs" over
// the bodies and the "val" spec registered so POST /v1/indexes can resolve
// it.
func newDocsEngine(t testing.TB, keep func(id int64) bool) *core.Engine {
	t.Helper()
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 4096))
	tbl, err := db.CreateTable(relation.Schema{
		Name: "Docs",
		Columns: []relation.Column{
			{Name: "id", Kind: relation.KindInt64},
			{Name: "body", Kind: relation.KindString},
			{Name: "val", Kind: relation.KindFloat64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := []struct {
		id   int64
		body string
		val  float64
	}{
		{1, "alpha beta common", 30},
		{2, "alpha gamma common", 20},
		{3, "alpha delta common", 10},
		{4, "beta delta rare", 5},
	}
	for _, d := range docs {
		if keep != nil && !keep(d.id) {
			continue
		}
		if err := tbl.Insert(relation.Row{relation.Int(d.id), relation.Str(d.body), relation.Float(d.val)}); err != nil {
			t.Fatal(err)
		}
	}
	engine := core.NewEngine(db, core.Options{})
	engine.RegisterSpec("val", docsSpec())
	if _, err := engine.CreateTextIndex("docs", "Docs", "body", core.IndexOptions{
		Method: core.MethodChunk,
		Spec:   docsSpec(),
	}); err != nil {
		t.Fatal(err)
	}
	return engine
}

// startServer starts srv on an ephemeral port, registers a cleanup that
// shuts it down and returns its base URL.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Not t.Context(): it is cancelled before cleanups run, which fails
		// the drain whenever a keep-alive connection is still open.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return "http://" + addr
}

// newTestServer starts a Server over one engine holding the whole corpus.
func newTestServer(t *testing.T) (*Server, string, *core.TextIndex) {
	t.Helper()
	engine := newDocsEngine(t, nil)
	ti, err := engine.TextIndex("docs")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, Options{})
	return srv, startServer(t, srv), ti
}

// deployment is one way of putting the test corpus behind the one handler
// set.  The API tests run over all of them: whatever the API promises, it
// promises for any number and kind of backends.
type deployment struct {
	base string
	// engines are the shard engines in shard order (mod-partitioned by id).
	engines []*core.Engine
	// kill takes shard i down the way its kind of backend dies.
	kill func(t *testing.T, i int)
}

// forEachDeployment runs fn as a subtest over {1 engine backend, 3 engine
// backends, 2 HTTP backends}.
func forEachDeployment(t *testing.T, fn func(t *testing.T, d *deployment)) {
	for _, kind := range []struct {
		name   string
		shards int
		remote bool
	}{
		{"1-engine", 1, false},
		{"3-engines", 3, false},
		{"2-http", 2, true},
	} {
		t.Run(kind.name, func(t *testing.T) {
			d := &deployment{}
			n := int64(kind.shards)
			backends := make([]Backend, n)
			shardSrvs := make([]*Server, n)
			for i := range backends {
				e := newDocsEngine(t, func(id int64) bool { return id%n == int64(i) })
				d.engines = append(d.engines, e)
				if kind.remote {
					shardSrvs[i] = New(e, Options{})
					backends[i] = NewHTTPBackend(startServer(t, shardSrvs[i]), 0)
				} else {
					backends[i] = NewEngineBackend(fmt.Sprintf("shard-%d", i), e, true)
				}
			}
			d.kill = func(t *testing.T, i int) {
				if !kind.remote {
					_ = d.engines[i].Close()
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := shardSrvs[i].Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
			}
			// The one-shard leg goes through New, so the constructor svrserve
			// uses is what gets tested.  Fast probes elsewhere so a killed
			// shard is noticed within the test.
			var front *Server
			if kind.shards == 1 {
				front = New(d.engines[0], Options{})
			} else {
				var err error
				front, err = NewRouter(backends, RouterOptions{Partitioner: "mod", HealthInterval: 20 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
			}
			d.base = startServer(t, front)
			fn(t, d)
		})
	}
}

// postJSON posts a body and returns the status plus decoded response bytes.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string, dst any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestSearchEndpointMatchesDirect(t *testing.T) {
	_, base, ti := newTestServer(t)

	direct, err := ti.Search(core.SearchRequest{Query: "alpha common", K: 10, LoadRows: true})
	if err != nil {
		t.Fatal(err)
	}

	status, data := postJSON(t, base+"/v1/indexes/docs/search", SearchRequest{Query: "alpha common", K: 10, LoadRows: true})
	if status != http.StatusOK {
		t.Fatalf("search status = %d, body %s", status, data)
	}
	var got SearchResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Hits) != len(direct.Hits) {
		t.Fatalf("HTTP search returned %d hits, direct %d", len(got.Hits), len(direct.Hits))
	}
	for i, h := range got.Hits {
		if h.PK != direct.Hits[i].PK || h.Score != direct.Hits[i].Score {
			t.Errorf("hit %d: HTTP (%d, %v) != direct (%d, %v)", i, h.PK, h.Score, direct.Hits[i].PK, direct.Hits[i].Score)
		}
		if h.Row == nil {
			t.Errorf("hit %d: load_rows set but no row returned", i)
			continue
		}
		if body, ok := h.Row["body"].(string); !ok || !strings.Contains(body, "common") {
			t.Errorf("hit %d: row body = %v, want the document text", i, h.Row["body"])
		}
	}
	if got.PostingsScanned != direct.PostingsScanned {
		t.Errorf("postings_scanned = %d, direct %d", got.PostingsScanned, direct.PostingsScanned)
	}

	// Terms form of the request matches the query form.
	status, data = postJSON(t, base+"/v1/indexes/docs/search", SearchRequest{Terms: []string{"alpha", "common"}, K: 10})
	if status != http.StatusOK {
		t.Fatalf("terms search status = %d, body %s", status, data)
	}
	var viaTerms SearchResponse
	if err := json.Unmarshal(data, &viaTerms); err != nil {
		t.Fatal(err)
	}
	if len(viaTerms.Hits) != len(direct.Hits) {
		t.Errorf("terms search returned %d hits, want %d", len(viaTerms.Hits), len(direct.Hits))
	}
}

func TestSearchValidation(t *testing.T) {
	forEachDeployment(t, testSearchValidation)
}

// searchValidationCases are the search requests the handler must turn away,
// with the status each earns; FuzzRequestBody seeds its corpus from them.
var searchValidationCases = []struct {
	name  string
	index string
	body  string
	want  int
}{
	{"unknown index", "nope", `{"query":"alpha"}`, http.StatusNotFound},
	{"malformed body", "docs", `{"query":`, http.StatusBadRequest},
	{"unknown field", "docs", `{"qwery":"alpha"}`, http.StatusBadRequest},
	{"missing query", "docs", `{"k":5}`, http.StatusBadRequest},
	{"no indexable terms", "docs", `{"query":"!!!"}`, http.StatusBadRequest},
	{"negative k", "docs", `{"query":"alpha","k":-1}`, http.StatusBadRequest},
	{"huge k (OOM guard)", "docs", `{"query":"alpha","k":2000000000}`, http.StatusBadRequest},
	{"query and terms both set", "docs", `{"query":"alpha","terms":["beta"]}`, http.StatusBadRequest},
	{"trailing data", "docs", `{"query":"alpha"}{"query":"beta"}`, http.StatusBadRequest},
}

func testSearchValidation(t *testing.T, d *deployment) {
	for _, tc := range searchValidationCases {
		resp, err := http.Post(d.base+"/v1/indexes/"+tc.index+"/search", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, data)
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q is not an ErrorResponse", tc.name, data)
		}
	}
}

// TestSearchHandlerAllocBudget is the serving-layer neighbour of
// core:TestSearchAllocBudget: one search through the one-backend Handler()
// — recorder in, canned body — must cost what it cost when a single engine
// had handlers of its own.  Measured on this fixture: 76 allocations per
// request through the parent commit's Server.Handler() (request and recorder
// construction included), 76 through this tree's; the budget adds one of
// slack for the *SearchResponse the backend seam returns.  The same request
// through two engine backends costs 137 (goroutines, timer, gather slices,
// merge heap and map), so a one-backend path that ever takes the scatter
// road fails this by a wide margin.
func TestSearchHandlerAllocBudget(t *testing.T) {
	const budget = 76 + 1
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	srv, _, _ := newTestServer(t)
	h := srv.Handler()
	body, err := json.Marshal(SearchRequest{Query: "alpha common", K: 10})
	if err != nil {
		t.Fatal(err)
	}
	search := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/indexes/docs/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("search status = %d, body %s", rec.Code, rec.Body.Bytes())
		}
	}
	search() // warm the pools
	if got := testing.AllocsPerRun(200, search); got > budget {
		t.Errorf("one search through the one-backend handler allocates %v times, budget %d", got, budget)
	}
}

func TestInsertRowsThenSearch(t *testing.T) {
	forEachDeployment(t, testInsertRowsThenSearch)
}

func testInsertRowsThenSearch(t *testing.T, d *deployment) {
	base := d.base

	status, data := postJSON(t, base+"/v1/tables/Docs/rows", map[string]any{
		"rows": []map[string]any{
			{"id": 10, "body": "alpha zeta common", "val": 99.5},
			{"id": 11, "body": "zeta omega", "val": 50},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("insert status = %d, body %s", status, data)
	}
	var ir InsertRowsResponse
	if err := json.Unmarshal(data, &ir); err != nil || ir.Inserted != 2 {
		t.Fatalf("insert response %s, want inserted=2", data)
	}

	status, data = postJSON(t, base+"/v1/indexes/docs/search", SearchRequest{Query: "zeta", K: 5})
	if status != http.StatusOK {
		t.Fatalf("search status = %d, body %s", status, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) != 2 || sr.Hits[0].PK != 10 || sr.Hits[0].Score != 99.5 {
		t.Fatalf("search after insert = %+v, want docs 10 (score 99.5) and 11", sr.Hits)
	}

	// Validation: missing column, unknown table, duplicate key.
	status, _ = postJSON(t, base+"/v1/tables/Docs/rows", map[string]any{
		"rows": []map[string]any{{"id": 12, "val": 1}},
	})
	if status != http.StatusBadRequest {
		t.Errorf("missing column: status = %d, want 400", status)
	}
	status, _ = postJSON(t, base+"/v1/tables/Nope/rows", map[string]any{
		"rows": []map[string]any{{"id": 12}},
	})
	if status != http.StatusNotFound {
		t.Errorf("unknown table: status = %d, want 404", status)
	}
	status, _ = postJSON(t, base+"/v1/tables/Docs/rows", map[string]any{
		"rows": []map[string]any{{"id": 10, "body": "dup", "val": 1}},
	})
	if status != http.StatusConflict {
		t.Errorf("duplicate key: status = %d, want 409", status)
	}
}

func TestBatchEndpoint(t *testing.T) {
	forEachDeployment(t, testBatchEndpoint)
}

func testBatchEndpoint(t *testing.T, d *deployment) {
	base := d.base

	// One batch: bump doc 3 to the top, delete doc 2, insert doc 20.
	status, data := postJSON(t, base+"/v1/batch", map[string]any{
		"ops": []map[string]any{
			{"op": "update", "table": "Docs", "pk": 3, "set": map[string]any{"val": 1000}},
			{"op": "delete", "table": "Docs", "pk": 2},
			{"op": "insert", "table": "Docs", "row": map[string]any{"id": 20, "body": "alpha common epsilon", "val": 500}},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", status, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil || br.Applied != 3 || br.Matched != 3 {
		t.Fatalf("batch response %s, want applied=3 matched=3", data)
	}

	res := searchVia(t, base, "docs", SearchRequest{Query: "alpha common", K: 10})
	wantOrder := []int64{3, 20, 1}
	if len(res.Hits) != len(wantOrder) {
		t.Fatalf("after batch: %d hits (%+v), want %v", len(res.Hits), res.Hits, wantOrder)
	}
	for i, pk := range wantOrder {
		if res.Hits[i].PK != pk {
			t.Errorf("after batch: hit %d = doc %d, want %d", i, res.Hits[i].PK, pk)
		}
	}

	// A malformed op rejects the whole batch before anything applies.
	for name, batch := range map[string]map[string]any{
		"unknown op kind": {"ops": []map[string]any{
			{"op": "update", "table": "Docs", "pk": 1, "set": map[string]any{"val": 7}},
			{"op": "upsert", "table": "Docs", "pk": 1},
		}},
		"update without pk": {"ops": []map[string]any{
			{"op": "update", "table": "Docs", "pk": 1, "set": map[string]any{"val": 7}},
			{"op": "update", "table": "Docs", "set": map[string]any{"val": 8}},
		}},
		"delete without pk": {"ops": []map[string]any{
			{"op": "update", "table": "Docs", "pk": 1, "set": map[string]any{"val": 7}},
			{"op": "delete", "table": "Docs"},
		}},
	} {
		status, data := postJSON(t, base+"/v1/batch", batch)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, status, data)
		}
		res := searchVia(t, base, "docs", SearchRequest{Query: "alpha beta", K: 1})
		if len(res.Hits) != 1 || res.Hits[0].PK != 1 || res.Hits[0].Score != 30 {
			t.Errorf("%s: rejected batch still applied: doc 1 = %+v, want score 30", name, res.Hits)
		}
	}

	// An ignore_missing op of an absent row is a no-op the reply counts.
	status, data = postJSON(t, base+"/v1/batch", map[string]any{
		"ops": []map[string]any{{"op": "delete", "table": "Docs", "pk": 999, "ignore_missing": true}},
	})
	if err := json.Unmarshal(data, &br); status != http.StatusOK || err != nil || br.Applied != 1 || br.Matched != 0 {
		t.Errorf("ignore_missing delete: status %d body %s, want 200 applied=1 matched=0", status, data)
	}

	// An unknown table in a batch is the same 404 the rows endpoint gives.
	status, _ = postJSON(t, base+"/v1/batch", map[string]any{
		"ops": []map[string]any{{"op": "delete", "table": "Nope", "pk": 1}},
	})
	if status != http.StatusNotFound {
		t.Errorf("unknown table in batch: status = %d, want 404", status)
	}
}

func TestHealthzAndStats(t *testing.T) {
	forEachDeployment(t, testHealthzAndStats)
}

// testHealthzAndStats pins the one wire shape of the two operational
// endpoints: the same keys whatever stands behind the handlers.
func testHealthzAndStats(t *testing.T, d *deployment) {
	base, n := d.base, len(d.engines)

	var health map[string]any
	if status := getJSON(t, base+"/healthz", &health); status != http.StatusOK {
		t.Fatalf("healthz status = %d", status)
	}
	shardList, _ := health["shards"].([]any)
	if health["status"] != "ok" || health["healthy_shards"] != float64(n) || len(shardList) != n {
		t.Errorf("healthz = %v, want status ok with %d healthy shards listed", health, n)
	}
	for _, gone := range []string{"mode", "indexes"} {
		if _, ok := health[gone]; ok {
			t.Errorf("healthz still carries %q: %v", gone, health)
		}
	}

	// A few searches so the stats have something to show.
	for i := 0; i < 3; i++ {
		searchVia(t, base, "docs", SearchRequest{Query: "alpha"})
	}

	type indexStats struct {
		Method           string   `json:"method"`
		Queries          uint64   `json:"queries"`
		LongListBytes    float64  `json:"long_list_bytes"`
		LongListRawBytes float64  `json:"long_list_raw_bytes"`
		CompressionRatio float64  `json:"compression_ratio"`
		Epoch            *float64 `json:"epoch"`
	}
	var stats struct {
		Indexes    map[string]indexStats `json:"indexes"`
		Pool       map[string]uint64     `json:"pool"`
		Pagefile   map[string]uint64     `json:"pagefile"`
		Durability map[string]uint64     `json:"durability"`
		Endpoints  []EndpointSnapshot    `json:"endpoints"`
		Tenants    []any                 `json:"tenants"`
		Uptime     float64               `json:"uptime_seconds"`
		Cluster    struct {
			Shards        int    `json:"shards"`
			HealthyShards int    `json:"healthy_shards"`
			Partitioner   string `json:"partitioner"`
		} `json:"cluster"`
		Shards map[string]struct {
			Indexes map[string]indexStats `json:"indexes"`
		} `json:"shards"`
	}
	if status := getJSON(t, base+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	idx, ok := stats.Indexes["docs"]
	if !ok || idx.Method == "" || idx.Queries < 3 {
		t.Errorf("stats.indexes[docs] = %+v, want queries >= 3 and a method name", idx)
	}
	var search *EndpointSnapshot
	for i := range stats.Endpoints {
		if strings.Contains(stats.Endpoints[i].Route, "/search") {
			search = &stats.Endpoints[i]
		}
	}
	if search == nil || search.Count < 3 || search.QPS <= 0 || search.P99MS <= 0 {
		t.Errorf("search endpoint metrics = %+v, want count >= 3 with QPS and latency", search)
	}
	if stats.Pagefile["reads"] == 0 && stats.Pool["hits"] == 0 {
		t.Errorf("stats show no storage activity at all: pool=%v pagefile=%v", stats.Pool, stats.Pagefile)
	}
	if stats.Durability == nil || stats.Tenants == nil || stats.Uptime <= 0 {
		t.Errorf("stats lack durability/tenants/uptime_seconds: %+v", stats)
	}
	if stats.Cluster.Shards != n || stats.Cluster.HealthyShards != n || stats.Cluster.Partitioner == "" || len(stats.Shards) != n {
		t.Errorf("stats cluster = %+v with %d shard entries, want %d healthy shards", stats.Cluster, len(stats.Shards), n)
	}

	// The top level reports a ratio of sums, and an epoch only when it is
	// one shard's: epochs are per-shard counters that mean nothing added up.
	var raw, stored, sumOfRatios float64
	for name, sh := range stats.Shards {
		si := sh.Indexes["docs"]
		if si.Epoch == nil {
			t.Errorf("shard %s reports no epoch for docs", name)
		}
		raw += si.LongListRawBytes
		stored += si.LongListBytes
		sumOfRatios += si.CompressionRatio
	}
	if stored == 0 || idx.LongListRawBytes != raw || idx.LongListBytes != stored {
		t.Fatalf("summed long-list bytes = %v raw / %v stored, shards add up to %v / %v", idx.LongListRawBytes, idx.LongListBytes, raw, stored)
	}
	if got, want := idx.CompressionRatio, raw/stored; math.Abs(got-want) > 1e-9 {
		t.Errorf("compression_ratio = %v, want Σraw/Σstored = %v (Σratio = %v)", got, want, sumOfRatios)
	}
	if (idx.Epoch != nil) != (n == 1) {
		t.Errorf("top-level epoch = %v over %d shards, want it only for one", idx.Epoch, n)
	}
}

func TestUnmatchedRoutesReturnJSON(t *testing.T) {
	forEachDeployment(t, testUnmatchedRoutesReturnJSON)
}

func testUnmatchedRoutesReturnJSON(t *testing.T, d *deployment) {
	base := d.base
	for name, tc := range map[string]struct {
		method, url string
		want        int
	}{
		"unknown path":   {http.MethodGet, base + "/nope", http.StatusNotFound},
		"wrong method":   {http.MethodGet, base + "/v1/batch", http.StatusMethodNotAllowed},
		"mistyped route": {http.MethodPost, base + "/v1/index/docs/search", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, tc.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", name, ct)
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: body %q does not decode as an ErrorResponse", name, data)
		}
	}
}

func TestLoadGenerator(t *testing.T) {
	_, base, _ := newTestServer(t)
	queries := [][]string{{"alpha"}, {"common"}, {"beta"}}
	res, err := RunSearchLoad(nil, base, "docs", queries, 5, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 40 || res.QPS <= 0 || res.P99 < res.P50 || res.P50 <= 0 {
		t.Errorf("load result %+v: want 40 queries with sane QPS/latency stats", res)
	}
}

func TestMetricsRegistry(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.Observe("GET /x", 200, 2*time.Millisecond)
	}
	r.Observe("GET /x", 500, 2*time.Second)
	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Count != 101 || s.Errors != 1 {
		t.Errorf("count=%d errors=%d, want 101/1", s.Count, s.Errors)
	}
	// p50 sits in the 2ms bucket (upper bound 4.096ms); p99 must reflect
	// the one 2s outlier's bucket only at p>100/101, so it stays near 4ms.
	if s.P50MS < 2 || s.P50MS > 5 {
		t.Errorf("p50 = %vms, want ~2-4ms", s.P50MS)
	}
	if s.P99MS > 10 {
		t.Errorf("p99 = %vms, want to exclude the single 2s outlier at this count", s.P99MS)
	}
	if s.AvgMS < 15 {
		t.Errorf("avg = %vms, want the outlier pulling it above ~20ms", s.AvgMS)
	}

	// A second outlier pushes the nearest-rank p99 index past the fast
	// bucket: the tail must now surface (ceil rounding — a floor would
	// still report the fast bucket).
	r.Observe("GET /x", 200, 2*time.Second)
	s = r.Snapshot()[0]
	if s.P99MS < 1000 {
		t.Errorf("p99 = %vms after 2/102 slow observations, want the ~2s tail bucket", s.P99MS)
	}
}
