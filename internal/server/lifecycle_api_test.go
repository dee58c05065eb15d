package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"svrdb/internal/relation"
	"svrdb/internal/view"
)

// doJSON issues a request with an optional JSON body and optional headers,
// returning status and body bytes.
func doJSON(t *testing.T, method, url string, body any, hdr map[string]string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(b))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

// assertNotFoundShape decodes data as the structured 404 body and checks
// every field the satellite contract names.
func assertNotFoundShape(t *testing.T, data []byte, resource, name string) {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("404 body %q is not JSON: %v", data, err)
	}
	if er.Code != "not_found" || er.Resource != resource || er.Name != name || er.Error == "" {
		t.Errorf("404 body = %+v, want code=not_found resource=%q name=%q with a message", er, resource, name)
	}
}

// TestIndexLifecycleEndpoints drives the full create → query → drop cycle
// over HTTP, including every error shape the endpoints promise.
func TestIndexLifecycleEndpoints(t *testing.T) {
	forEachDeployment(t, testIndexLifecycleEndpoints)
}

func testIndexLifecycleEndpoints(t *testing.T, d *deployment) {
	base := d.base

	// Create a second index over the same table with a different method;
	// the reply names the method the engine resolved, not the request's.
	status, data := doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs2", Table: "Docs", Column: "body", Method: "id", Spec: "val",
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("create status = %d, body %s", status, data)
	}
	var cr CreateIndexResponse
	if err := json.Unmarshal(data, &cr); err != nil || cr.Name != "docs2" || cr.Method != "ID" {
		t.Fatalf("create response %s (err %v), want name docs2 method ID", data, err)
	}
	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs3", Table: "Docs", Column: "body", Spec: "val",
	}, nil)
	if err := json.Unmarshal(data, &cr); status != http.StatusCreated || err != nil || cr.Method == "" {
		t.Fatalf("create with the default method: status %d body %s, want 201 naming the resolved method", status, data)
	}

	// The new index answers immediately and agrees with the original.
	want := searchVia(t, base, "docs", SearchRequest{Query: "alpha common", K: 10})
	got := searchVia(t, base, "docs2", SearchRequest{Query: "alpha common", K: 10})
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("new index returned %d hits, existing %d", len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if got.Hits[i].PK != want.Hits[i].PK || got.Hits[i].Score != want.Hits[i].Score {
			t.Errorf("hit %d: docs2 (%d, %v) != docs (%d, %v)", i,
				got.Hits[i].PK, got.Hits[i].Score, want.Hits[i].PK, want.Hits[i].Score)
		}
	}

	// Error shapes.
	for _, tc := range []struct {
		name string
		req  CreateIndexRequest
		want int
	}{
		{"duplicate name", CreateIndexRequest{Name: "docs", Table: "Docs", Column: "body", Spec: "val"}, http.StatusConflict},
		{"unknown spec", CreateIndexRequest{Name: "x", Table: "Docs", Column: "body", Spec: "nope"}, http.StatusBadRequest},
		{"missing spec", CreateIndexRequest{Name: "x", Table: "Docs", Column: "body"}, http.StatusBadRequest},
		{"unknown method", CreateIndexRequest{Name: "x", Table: "Docs", Column: "body", Method: "bogus", Spec: "val"}, http.StatusBadRequest},
		{"missing name", CreateIndexRequest{Table: "Docs", Column: "body", Spec: "val"}, http.StatusBadRequest},
	} {
		status, data := doJSON(t, http.MethodPost, base+"/v1/indexes", tc.req, nil)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, status, tc.want, data)
		}
	}
	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "x", Table: "Nope", Column: "body", Spec: "val",
	}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown table: status = %d, want 404 (body %s)", status, data)
	}
	assertNotFoundShape(t, data, "table", "Nope")

	// Drop the new index; searches on it 404 with the structured shape.
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("drop status = %d, body %s", status, data)
	}
	var dr DropIndexResponse
	if err := json.Unmarshal(data, &dr); err != nil || dr.Dropped != "docs2" {
		t.Fatalf("drop response %s, want dropped docs2", data)
	}
	status, data = postJSON(t, base+"/v1/indexes/docs2/search", SearchRequest{Query: "alpha"})
	if status != http.StatusNotFound {
		t.Fatalf("search after drop: status = %d, want 404", status)
	}
	assertNotFoundShape(t, data, "index", "docs2")
	// Dropping again is the same structured 404.
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs2", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("double drop: status = %d, want 404", status)
	}
	assertNotFoundShape(t, data, "index", "docs2")

	// The original index kept serving throughout.
	if res := searchVia(t, base, "docs", SearchRequest{Query: "alpha common", K: 10}); len(res.Hits) == 0 {
		t.Error("original index lost its results across the neighbour's lifecycle")
	}
}

// TestTenantEndpointsAndQuota exercises the tenant API end to end: register
// a tenant, namespace requests with X-SVR-Tenant on every named route, build
// a tenant index over a tenant table, hit the quota (429), and read the
// per-tenant stats slice.  Quotas are per shard, so the tenant's rows all
// carry ids divisible by 6 — one shard owns them under mod 1, 2 and 3 alike
// and the quota arithmetic is the same in every deployment.
func TestTenantEndpointsAndQuota(t *testing.T) {
	forEachDeployment(t, testTenantEndpointsAndQuota)
}

func testTenantEndpointsAndQuota(t *testing.T, d *deployment) {
	base := d.base
	acme := map[string]string{"X-SVR-Tenant": "acme"}

	status, data := doJSON(t, http.MethodPost, base+"/v1/tenants", CreateTenantRequest{
		Name: "acme", MaxRows: 3,
	}, nil)
	var registered TenantStatus
	if err := json.Unmarshal(data, &registered); status != http.StatusCreated || err != nil ||
		registered.Name != "acme" || registered.MaxRows != 3 || registered.Rows != 0 {
		t.Fatalf("create tenant: status %d body %s, want 201 with the tenant's status", status, data)
	}
	status, data = doJSON(t, http.MethodPost, base+"/v1/tenants", CreateTenantRequest{Name: "a/b"}, nil)
	if status != http.StatusBadRequest {
		t.Errorf("invalid tenant name: status = %d, want 400 (body %s)", status, data)
	}

	// The tenant's table lives under its prefix; the spec for its index is
	// registered server-side like any other deployment-provided spec.
	for _, e := range d.engines {
		if _, err := e.DB().CreateTable(relation.Schema{
			Name: "acme/Docs",
			Columns: []relation.Column{
				{Name: "id", Kind: relation.KindInt64},
				{Name: "body", Kind: relation.KindString},
				{Name: "val", Kind: relation.KindFloat64},
			},
		}); err != nil {
			t.Fatal(err)
		}
		e.RegisterSpec("acme-val", view.Spec{Components: []view.Component{view.OwnColumn("acme/Docs", "val")}})
	}

	// tenantHits searches the tenant's index through the header-qualified
	// unprefixed name.
	tenantHits := func() int {
		status, data := doJSON(t, http.MethodPost, base+"/v1/indexes/docs/search", SearchRequest{Query: "tenant", K: 10}, acme)
		if status != http.StatusOK {
			t.Fatalf("tenant search status = %d, body %s", status, data)
		}
		var sr SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		return len(sr.Hits)
	}

	// Unqualified names + the tenant header = the tenant's namespace.
	status, data = doJSON(t, http.MethodPost, base+"/v1/tables/Docs/rows", map[string]any{
		"rows": []map[string]any{
			{"id": 6, "body": "alpha tenant", "val": 10},
			{"id": 12, "body": "beta tenant", "val": 5},
		},
	}, acme)
	if status != http.StatusOK {
		t.Fatalf("tenant insert status = %d, body %s", status, data)
	}
	// Without the header the same path hits the shared Docs table — the two
	// namespaces must not bleed into each other.
	res := searchVia(t, base, "docs", SearchRequest{Query: "tenant", K: 10})
	if len(res.Hits) != 0 {
		t.Errorf("shared index sees %d tenant rows", len(res.Hits))
	}
	var schema SchemaResponse
	status, data = doJSON(t, http.MethodGet, base+"/v1/tables/Docs/schema", nil, acme)
	if err := json.Unmarshal(data, &schema); status != http.StatusOK || err != nil || schema.Table != "acme/Docs" {
		t.Errorf("tenant schema: status %d body %s, want the acme/Docs schema", status, data)
	}

	// Create the tenant's index through the API with the header qualifying
	// both the index and table names.
	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes", CreateIndexRequest{
		Name: "docs", Table: "Docs", Column: "body", Spec: "acme-val",
	}, acme)
	if status != http.StatusCreated {
		t.Fatalf("tenant index create status = %d, body %s", status, data)
	}
	var cr CreateIndexResponse
	if err := json.Unmarshal(data, &cr); err != nil || cr.Name != "acme/docs" || cr.Table != "acme/Docs" {
		t.Fatalf("tenant index create response %s, want acme/-qualified names", data)
	}
	if n := tenantHits(); n != 2 {
		t.Fatalf("tenant search found %d hits, want its 2 rows", n)
	}
	var ts TermStatsResponse
	status, data = doJSON(t, http.MethodPost, base+"/v1/indexes/docs/termstats", TermStatsRequest{Query: "tenant"}, acme)
	if err := json.Unmarshal(data, &ts); status != http.StatusOK || err != nil || ts.NumDocs != 2 {
		t.Errorf("tenant termstats: status %d body %s, want num_docs 2", status, data)
	}

	// Quota: 2 of 3 rows used; a 2-row batch rejects atomically with 429.
	status, data = doJSON(t, http.MethodPost, base+"/v1/tables/Docs/rows", map[string]any{
		"rows": []map[string]any{
			{"id": 18, "body": "gamma tenant", "val": 1},
			{"id": 24, "body": "delta tenant", "val": 1},
		},
	}, acme)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota insert status = %d, want 429 (body %s)", status, data)
	}
	if n := tenantHits(); n != 2 {
		t.Errorf("rejected batch partially applied: %d hits, want 2", n)
	}
	// The batch endpoint enforces the same quota.
	status, data = doJSON(t, http.MethodPost, base+"/v1/batch", map[string]any{
		"ops": []map[string]any{
			{"op": "insert", "table": "Docs", "row": map[string]any{"id": 30, "body": "x", "val": 1}},
			{"op": "insert", "table": "Docs", "row": map[string]any{"id": 36, "body": "y", "val": 1}},
		},
	}, acme)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch status = %d, want 429 (body %s)", status, data)
	}
	// One row still fits; deletes always pass.
	status, data = doJSON(t, http.MethodPost, base+"/v1/batch", map[string]any{
		"ops": []map[string]any{{"op": "insert", "table": "Docs", "row": map[string]any{"id": 18, "body": "gamma tenant", "val": 1}}},
	}, acme)
	if status != http.StatusOK {
		t.Fatalf("final-slot insert status = %d (body %s)", status, data)
	}
	pk := int64(18)
	status, data = doJSON(t, http.MethodPost, base+"/v1/batch", BatchRequest{
		Ops: []BatchOp{{Op: "delete", Table: "Docs", PK: &pk}},
	}, acme)
	if status != http.StatusOK {
		t.Fatalf("delete at full quota status = %d (body %s)", status, data)
	}

	// GET /v1/tenants and the stats tenants slice agree on usage.
	var list TenantsResponse
	if status := getJSON(t, base+"/v1/tenants", &list); status != http.StatusOK {
		t.Fatalf("list tenants status = %d", status)
	}
	if len(list.Tenants) != 1 || list.Tenants[0].Name != "acme" || list.Tenants[0].Rows != 2 || list.Tenants[0].MaxRows != 3 {
		t.Fatalf("tenant list = %+v, want acme with 2/3 rows", list.Tenants)
	}
	if list.Tenants[0].Bytes == 0 {
		t.Error("tenant byte usage is zero with rows present")
	}

	var stats struct {
		Tenants []struct {
			Name    string            `json:"name"`
			Rows    int64             `json:"rows"`
			Latency *EndpointSnapshot `json:"latency"`
		} `json:"tenants"`
	}
	if status := getJSON(t, base+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if len(stats.Tenants) != 1 || stats.Tenants[0].Name != "acme" || stats.Tenants[0].Rows != 2 {
		t.Fatalf("stats tenants = %+v, want acme with 2 rows", stats.Tenants)
	}
	lat := stats.Tenants[0].Latency
	if lat == nil || lat.Count < 5 || lat.P99MS <= 0 {
		t.Errorf("per-tenant latency histogram = %+v, want the tenant's requests counted with percentiles", lat)
	}

	// The tenant drops its index by the unprefixed name too.
	status, data = doJSON(t, http.MethodDelete, base+"/v1/indexes/docs", nil, acme)
	var dr DropIndexResponse
	if err := json.Unmarshal(data, &dr); status != http.StatusOK || err != nil || dr.Dropped != "acme/docs" {
		t.Errorf("tenant drop: status %d body %s, want acme/docs dropped", status, data)
	}
	if res := searchVia(t, base, "docs", SearchRequest{Query: "alpha", K: 10}); len(res.Hits) == 0 {
		t.Error("the tenant's drop took the shared index with it")
	}
}

// TestChangesStream subscribes to a table's change feed — one stream over
// however many shards — and checks that a write routed to every shard
// arrives on it as NDJSON events, each key's events in commit order, and
// that the stream needs every shard: a down one ends it and turns
// subscriptions away with 503 rather than serving a silently thinner feed.
func TestChangesStream(t *testing.T) {
	forEachDeployment(t, testChangesStream)
}

func testChangesStream(t *testing.T, d *deployment) {
	base := d.base

	// Validation first: missing and unknown table.
	status, data := doJSON(t, http.MethodGet, base+"/v1/changes", nil, nil)
	if status != http.StatusBadRequest {
		t.Errorf("missing table param: status = %d (body %s), want 400", status, data)
	}
	status, data = doJSON(t, http.MethodGet, base+"/v1/changes?table=Nope", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown table: status = %d, want 404", status)
	}
	assertNotFoundShape(t, data, "table", "Nope")

	resp, err := http.Get(base + "/v1/changes?table=Docs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	// Mutate while subscribed.  Ids 50, 51 and 52 cover every residue mod 2
	// and mod 3, so each shard of each deployment takes an insert.
	type change struct {
		kind string
		pk   int64
	}
	want := []change{{"insert", 50}, {"insert", 51}, {"insert", 52}, {"update", 1}, {"delete", 4}, {"update", 50}}
	status, data = postJSON(t, base+"/v1/batch", map[string]any{
		"ops": []map[string]any{
			{"op": "insert", "table": "Docs", "row": map[string]any{"id": 50, "body": "streamed doc", "val": 7}},
			{"op": "insert", "table": "Docs", "row": map[string]any{"id": 51, "body": "streamed doc", "val": 7}},
			{"op": "insert", "table": "Docs", "row": map[string]any{"id": 52, "body": "streamed doc", "val": 7}},
			{"op": "update", "table": "Docs", "pk": 1, "set": map[string]any{"val": 99}},
			{"op": "delete", "table": "Docs", "pk": 4},
			{"op": "update", "table": "Docs", "pk": 50, "set": map[string]any{"val": 8}},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", status, data)
	}

	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(10*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	var got []change
	for i := range want {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d events: %v", i, sc.Err())
		}
		var ev ChangeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event %d: bad NDJSON line %q: %v", i, sc.Text(), err)
		}
		if ev.Lagged {
			t.Fatalf("stream lagged during a %d-op test batch", len(want))
		}
		if ev.Table != "Docs" {
			t.Errorf("event %d = %+v, want table Docs", i, ev)
		}
		got = append(got, change{ev.Kind, ev.PK})
		if ev.Kind == "insert" {
			if body, _ := ev.Row["body"].(string); body != "streamed doc" {
				t.Errorf("insert event row = %v, want the inserted body", ev.Row)
			}
		}
		if ev.Kind == "delete" && ev.Row != nil {
			t.Errorf("delete event carries a row: %v", ev.Row)
		}
	}
	// One shard commits in batch order; across shards only each key's own
	// events are ordered.
	perKey := func(cs []change) map[int64][]string {
		m := map[int64][]string{}
		for _, c := range cs {
			m[c.pk] = append(m[c.pk], c.kind)
		}
		return m
	}
	if len(d.engines) == 1 && !reflect.DeepEqual(got, want) {
		t.Errorf("one shard streamed %v, want batch order %v", got, want)
	}
	if !reflect.DeepEqual(perKey(got), perKey(want)) {
		t.Errorf("streamed %v, want per-key order of %v", got, want)
	}

	// Take the last shard down: the open stream ends, and until the shard
	// is back a new subscription is refused.
	d.kill(t, len(d.engines)-1)
	for sc.Scan() {
	}
	deadlineAt := time.Now().Add(5 * time.Second)
	for {
		status, data = doJSON(t, http.MethodGet, base+"/v1/changes?table=Docs", nil, nil)
		if status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatalf("subscription with a shard down: status %d (body %.200s), want 503", status, data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
