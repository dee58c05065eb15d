package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/view"
)

// registerShardSpecs gives every shard engine the named "val" spec that
// POST /v1/indexes resolves (specs hold Go functions and cannot travel in a
// request body, so each shard must know the name).
func registerShardSpecs(shards []*core.Engine) {
	for _, e := range shards {
		e.RegisterSpec("val", view.Spec{Components: []view.Component{view.OwnColumn("Docs", "val")}})
	}
}

// routerHealthz fetches /healthz and returns status string + healthy count.
func routerHealthz(t *testing.T, base string) (string, int) {
	t.Helper()
	var hz struct {
		Status        string `json:"status"`
		HealthyShards int    `json:"healthy_shards"`
	}
	if code := getJSON(t, base+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	return hz.Status, hz.HealthyShards
}

// TestRouterIndexLifecycleFanOut drives create → query → drop through the
// router: the create lands on every shard engine, routed searches agree
// with the pre-existing index, and the drop removes the index everywhere
// (with the all-shards-missing case collapsing to the structured 404).
func TestRouterIndexLifecycleFanOut(t *testing.T) {
	_, shards := newShardedFixture(t, 40, 3)
	registerShardSpecs(shards)
	_, base := startRouter(t, shards, RouterOptions{})

	status, data := doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs2", Table: "Docs", Column: "body", Method: "id", Spec: "val",
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("routed create status = %d, body %s", status, data)
	}
	for i, e := range shards {
		if _, err := e.TextIndex("docs2"); err != nil {
			t.Errorf("shard %d missing docs2 after routed create: %v", i, err)
		}
	}

	// Both methods are exact over the same score spec, so the scattered
	// top-k through the new index must equal the existing chunk index's.
	want := searchVia(t, base, "docs", SearchRequest{Query: "alpha", K: 20, Disjunctive: true})
	got := searchVia(t, base, "docs2", SearchRequest{Query: "alpha", K: 20, Disjunctive: true})
	if got.Partial || len(got.Hits) == 0 {
		t.Fatalf("routed search on new index: partial=%v hits=%d", got.Partial, len(got.Hits))
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("docs2 returned %d hits, docs %d", len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if got.Hits[i].PK != want.Hits[i].PK || got.Hits[i].Score != want.Hits[i].Score {
			t.Errorf("hit %d: docs2 (%d, %v) != docs (%d, %v)", i,
				got.Hits[i].PK, got.Hits[i].Score, want.Hits[i].PK, want.Hits[i].Score)
		}
	}

	// A duplicate create is a 409 from every shard, surfaced as one 409.
	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs2", Table: "Docs", Column: "body", Spec: "val",
	}, nil)
	if status != http.StatusConflict {
		t.Errorf("duplicate routed create status = %d, want 409 (body %s)", status, data)
	}

	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("routed drop status = %d, body %s", status, data)
	}
	var dr DropIndexResponse
	if err := json.Unmarshal(data, &dr); err != nil || dr.Dropped != "docs2" {
		t.Fatalf("routed drop response %s, want dropped docs2", data)
	}
	for i, e := range shards {
		if _, err := e.TextIndex("docs2"); !errors.Is(err, relation.ErrNotFound) {
			t.Errorf("shard %d still has docs2 after routed drop (err %v)", i, err)
		}
	}
	// Every shard now misses → the router's own structured 404.
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("double routed drop status = %d, want 404 (body %s)", status, data)
	}
	assertNotFoundShape(t, data, "index", "docs2")
}

// TestRouterStructured404DoesNotMarkShardsDown asserts the unified 404
// contract through in-process backends: a missing index produces the same
// structured body as the single-engine server, and client mistakes (4xx)
// never count against shard health or degrade subsequent searches.
func TestRouterStructured404DoesNotMarkShardsDown(t *testing.T) {
	_, shards := newShardedFixture(t, 30, 2)
	_, base := startRouter(t, shards, RouterOptions{})

	for i := 0; i < 3; i++ {
		status, data := postJSON(t, base+"/v1/indexes/nope/search", SearchRequest{Query: "alpha"})
		if status != http.StatusNotFound {
			t.Fatalf("missing index search status = %d, want 404 (body %s)", status, data)
		}
		assertNotFoundShape(t, data, "index", "nope")
	}

	if st, healthy := routerHealthz(t, base); st != "ok" || healthy != len(shards) {
		t.Errorf("healthz after 404 storm = %q with %d healthy shards, want ok with %d", st, healthy, len(shards))
	}
	if res := searchVia(t, base, "docs", SearchRequest{Query: "alpha", K: 10, Disjunctive: true}); res.Partial || len(res.Hits) == 0 {
		t.Errorf("search after 404 storm: partial=%v hits=%d — a 4xx must not bench a shard", res.Partial, len(res.Hits))
	}
}

// TestRouterRejectedQueryMarksNoShardDown sends the docs index (Chunk, no
// term weights) the two queries its method rejects — a term-score query and
// global stats whose df vector does not match the query's terms — over one
// engine, three engines and two HTTP backends.  Each is the client's mistake
// (400), so no shard may be taken for down: the next valid search answers
// 200 with every hit, not partial, and /healthz reports every shard healthy.
func TestRouterRejectedQueryMarksNoShardDown(t *testing.T) {
	forEachDeployment(t, func(t *testing.T, d *deployment) {
		for _, body := range []string{
			`{"query":"alpha","with_term_scores":true}`,
			`{"query":"alpha","global":{"num_docs":4,"df":[3,1]}}`,
		} {
			resp, err := http.Post(d.base+"/v1/indexes/docs/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status = %d, want 400 (body %s)", body, resp.StatusCode, data)
			}
		}
		res := searchVia(t, d.base, "docs", SearchRequest{Query: "alpha", K: 10})
		var pks []int64
		for _, h := range res.Hits {
			pks = append(pks, h.PK)
		}
		if res.Partial || !slices.Equal(pks, []int64{1, 2, 3}) {
			t.Errorf("search after the rejected queries: partial=%v pks=%v, want the full answer [1 2 3]", res.Partial, pks)
		}
		if st, healthy := routerHealthz(t, d.base); st != "ok" || healthy != len(d.engines) {
			t.Errorf("healthz after the rejected queries = %q with %d healthy shards, want ok with %d", st, healthy, len(d.engines))
		}
	})
}

// TestRouterLifecycleOverHTTPBackends repeats the 404-shape and lifecycle
// fan-out checks with real HTTP shard servers behind the router, proving a
// shard's structured 404 body survives the extra hop verbatim.
func TestRouterLifecycleOverHTTPBackends(t *testing.T) {
	_, shards := newShardedFixture(t, 30, 2)
	registerShardSpecs(shards)
	backends := make([]Backend, len(shards))
	for i, e := range shards {
		backends[i] = NewHTTPBackend(startServer(t, New(e, Options{})), 0)
	}
	rt, err := NewRouter(backends, RouterOptions{Partitioner: "mod"})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, rt)

	status, data := postJSON(t, base+"/v1/indexes/nope/search", SearchRequest{Query: "alpha"})
	if status != http.StatusNotFound {
		t.Fatalf("missing index over HTTP backends: status = %d (body %s)", status, data)
	}
	assertNotFoundShape(t, data, "index", "nope")

	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs2", Table: "Docs", Column: "body", Spec: "val",
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("create over HTTP backends: status = %d (body %s)", status, data)
	}
	for i, e := range shards {
		if _, err := e.TextIndex("docs2"); err != nil {
			t.Errorf("shard %d missing docs2: %v", i, err)
		}
	}
	if res := searchVia(t, base, "docs2", SearchRequest{Query: "alpha", K: 10, Disjunctive: true}); res.Partial || len(res.Hits) == 0 {
		t.Fatalf("search on created index: partial=%v hits=%d", res.Partial, len(res.Hits))
	}
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("drop over HTTP backends: status = %d (body %s)", status, data)
	}
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("double drop over HTTP backends: status = %d (body %s)", status, data)
	}
	assertNotFoundShape(t, data, "index", "docs2")

	if st, healthy := routerHealthz(t, base); st != "ok" || healthy != len(shards) {
		t.Errorf("healthz after lifecycle + 404s = %q/%d healthy, want ok/%d", st, healthy, len(shards))
	}
}

// TestRouterCreateTenantFanOut checks a tenant registration reaches every
// shard engine so each meters its slice against the same quota.
func TestRouterCreateTenantFanOut(t *testing.T) {
	_, shards := newShardedFixture(t, 20, 3)
	_, base := startRouter(t, shards, RouterOptions{})

	status, data := doJSON(t, http.MethodPost, base+"/v1/tenants", CreateTenantRequest{
		Name: "acme", MaxRows: 5, MaxBytes: 1 << 20,
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("routed tenant create status = %d, body %s", status, data)
	}
	for i, e := range shards {
		quota, ok := e.TenantQuotaOf("acme")
		if !ok || quota.MaxRows != 5 || quota.MaxBytes != 1<<20 {
			t.Errorf("shard %d tenant acme = (%+v, %v), want the registered quota", i, quota, ok)
		}
	}
	status, data = doJSON(t, http.MethodPost, base+"/v1/tenants", CreateTenantRequest{Name: "a/b"}, nil)
	if status != http.StatusBadRequest {
		t.Errorf("invalid tenant name over router: status = %d, want 400 (body %s)", status, data)
	}
}
