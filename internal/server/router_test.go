package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
	"svrdb/internal/view"
)

// routerVocab is small enough that terms collide across shards, so global
// document frequencies genuinely differ from any single shard's.
var routerVocab = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}

func routerDocBody(id int64) string {
	i := int(id)
	return routerVocab[i%len(routerVocab)] + " " +
		routerVocab[(i/2)%len(routerVocab)] + " " +
		routerVocab[(i*3+1)%len(routerVocab)]
}

func routerDocVal(id int64) float64 { return float64((id*37)%100) + 1 }

// newRouterTestEngine builds one engine holding the docs with the given ids,
// with a Docs table and both a plain-chunk and a termscore index over it.
func newRouterTestEngine(t *testing.T, ids []int64) *core.Engine {
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
	for _, id := range ids {
		row := relation.Row{relation.Int(id), relation.Str(routerDocBody(id)), relation.Float(routerDocVal(id))}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	engine := core.NewEngine(db, core.Options{})
	spec := view.Spec{Components: []view.Component{view.OwnColumn("Docs", "val")}}
	if _, err := engine.CreateTextIndex("docs", "Docs", "body", core.IndexOptions{
		Method: core.MethodChunk, Spec: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.CreateTextIndex("scored", "Docs", "body", core.IndexOptions{
		Method: core.MethodChunkTermScore, Spec: spec,
	}); err != nil {
		t.Fatal(err)
	}
	return engine
}

// newShardedFixture builds one engine with all numDocs documents and n
// engines holding the mod-partitioned slices, so sharded answers can be
// checked against the unsharded truth.
func newShardedFixture(t *testing.T, numDocs int64, n int) (single *core.Engine, shards []*core.Engine) {
	t.Helper()
	var all []int64
	parts := make([][]int64, n)
	for id := int64(1); id <= numDocs; id++ {
		all = append(all, id)
		parts[id%int64(n)] = append(parts[id%int64(n)], id)
	}
	single = newRouterTestEngine(t, all)
	t.Cleanup(func() { _ = single.Close() })
	for i := 0; i < n; i++ {
		shards = append(shards, newRouterTestEngine(t, parts[i]))
	}
	return single, shards
}

// startRouter wraps the shard engines in backends, starts a Router on an
// ephemeral port and registers a cleanup shutdown.
func startRouter(t *testing.T, shards []*core.Engine, opts RouterOptions) (*Router, string) {
	t.Helper()
	backends := make([]Backend, len(shards))
	for i, e := range shards {
		backends[i] = NewEngineBackend(fmt.Sprintf("shard-%d", i), e, true)
	}
	if opts.Partitioner == "" {
		opts.Partitioner = "mod"
	}
	rt, err := NewRouter(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt, startServer(t, rt)
}

func searchVia(t *testing.T, base, index string, req SearchRequest) SearchResponse {
	t.Helper()
	status, data := postJSON(t, base+"/v1/indexes/"+index+"/search", req)
	if status != http.StatusOK {
		t.Fatalf("search status = %d, body %s", status, data)
	}
	var resp SearchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterMatchesSingleServer is the routed counterpart of the core
// layer's sharded-equivalence property: the same queries through a 3-shard
// router and through a single server over all the data must rank the same
// documents with bit-identical scores — including TF-IDF ranking, which
// only holds because the router pins cluster-global document frequencies.
func TestRouterMatchesSingleServer(t *testing.T) {
	single, shards := newShardedFixture(t, 90, 3)
	_, routerBase := startRouter(t, shards, RouterOptions{})

	singleBase := startServer(t, New(single, Options{}))

	queries := []SearchRequest{
		{Query: "alpha", K: 10},
		{Query: "alpha beta", K: 10},
		{Query: "alpha beta", K: 10, Disjunctive: true},
		{Query: "gamma delta epsilon", K: 25, Disjunctive: true},
		{Query: "theta", K: 1},
		{Query: "alpha common-missing-term", K: 10},
	}
	for _, index := range []string{"docs", "scored"} {
		for _, q := range queries {
			if index == "scored" {
				q.WithTermScores = true
			}
			want := searchVia(t, singleBase, index, q)
			got := searchVia(t, routerBase, index, q)
			if got.Partial {
				t.Fatalf("%s %q: partial result with all shards up", index, q.Query)
			}
			if len(got.Hits) != len(want.Hits) {
				t.Fatalf("%s %q: router %d hits, single %d", index, q.Query, len(got.Hits), len(want.Hits))
			}
			for i := range want.Hits {
				if got.Hits[i].PK != want.Hits[i].PK || got.Hits[i].Score != want.Hits[i].Score {
					t.Errorf("%s %q hit %d: router (%d, %v) != single (%d, %v)",
						index, q.Query, i, got.Hits[i].PK, got.Hits[i].Score, want.Hits[i].PK, want.Hits[i].Score)
				}
			}
		}
	}

	// The router's termstats aggregate must equal the single engine's.
	var fromRouter, fromSingle TermStatsResponse
	for base, dst := range map[string]*TermStatsResponse{routerBase: &fromRouter, singleBase: &fromSingle} {
		status, data := postJSON(t, base+"/v1/indexes/docs/termstats", TermStatsRequest{Query: "alpha beta"})
		if status != http.StatusOK {
			t.Fatalf("termstats status = %d, body %s", status, data)
		}
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatal(err)
		}
	}
	if fromRouter.NumDocs != fromSingle.NumDocs {
		t.Errorf("termstats num_docs: router %d, single %d", fromRouter.NumDocs, fromSingle.NumDocs)
	}
	for i := range fromSingle.DF {
		if fromRouter.DF[i] != fromSingle.DF[i] {
			t.Errorf("termstats df[%d]: router %d, single %d", i, fromRouter.DF[i], fromSingle.DF[i])
		}
	}
}

// TestRouterTermStatsAfterDeletes deletes built documents, and an inserted
// document edited before its delete, through a 3-shard router and through a
// single server over the same data.  Afterwards every term's df equals the
// number of live documents holding it, and the router's df sum equals the
// single engine's.
func TestRouterTermStatsAfterDeletes(t *testing.T) {
	single, shards := newShardedFixture(t, 90, 3)
	_, routerBase := startRouter(t, shards, RouterOptions{})
	singleBase := startServer(t, New(single, Options{}))
	pk := func(v int64) *int64 { return &v }
	batches := [][]BatchOp{
		{{Op: "insert", Table: "Docs", Row: map[string]json.RawMessage{
			"id": json.RawMessage("1000"), "body": json.RawMessage(`"alpha zeppelin"`), "val": json.RawMessage("5")}}},
		{{Op: "update", Table: "Docs", PK: pk(1000), Set: map[string]json.RawMessage{"body": json.RawMessage(`"beta dirigible"`)}}},
		{{Op: "delete", Table: "Docs", PK: pk(1000)}},
	}
	var dels []BatchOp
	for id := int64(1); id < 10; id++ {
		dels = append(dels, BatchOp{Op: "delete", Table: "Docs", PK: pk(id)})
	}
	batches = append(batches, dels)
	for _, base := range []string{routerBase, singleBase} {
		for _, b := range batches {
			if status, data := postJSON(t, base+"/v1/batch", BatchRequest{Ops: b}); status != http.StatusOK {
				t.Fatalf("batch status = %d, body %s", status, data)
			}
		}
	}

	terms := append(append([]string(nil), routerVocab...), "zeppelin", "dirigible")
	live := map[string]int64{}
	for id := int64(10); id <= 90; id++ {
		for _, term := range text.DistinctTerms(single.Analyzer().Tokenize(routerDocBody(id))) {
			live[term]++
		}
	}
	var fromRouter, fromSingle TermStatsResponse
	for base, dst := range map[string]*TermStatsResponse{routerBase: &fromRouter, singleBase: &fromSingle} {
		status, data := postJSON(t, base+"/v1/indexes/docs/termstats", TermStatsRequest{Query: strings.Join(terms, " ")})
		if status != http.StatusOK {
			t.Fatalf("termstats status = %d, body %s", status, data)
		}
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatal(err)
		}
	}
	if fromSingle.NumDocs != 81 || fromRouter.NumDocs != 81 {
		t.Errorf("num_docs: router %d, single %d, want 81", fromRouter.NumDocs, fromSingle.NumDocs)
	}
	for i, term := range text.DistinctTerms(terms) {
		if fromSingle.DF[i] != live[term] {
			t.Errorf("single df(%q) = %d, want %d live documents", term, fromSingle.DF[i], live[term])
		}
		if fromRouter.DF[i] != fromSingle.DF[i] {
			t.Errorf("df(%q): router %d, single %d", term, fromRouter.DF[i], fromSingle.DF[i])
		}
	}
}

// TestRouterOverHTTPBackends runs the router against real svrserve-style
// shard servers over HTTP and then kills one, asserting degraded-but-
// serving behavior end to end: partial search results, a degraded healthz,
// and a 503 (not a stall or a torn response) only if every shard is gone.
func TestRouterOverHTTPBackends(t *testing.T) {
	_, shards := newShardedFixture(t, 60, 2)
	shardSrvs := make([]*Server, 2)
	backends := make([]Backend, 2)
	for i, e := range shards {
		shardSrvs[i] = New(e, Options{})
		backends[i] = NewHTTPBackend(startServer(t, shardSrvs[i]), 0)
	}
	rt, err := NewRouter(backends, RouterOptions{
		Partitioner: "mod",
		// Fast probes so the test observes recovery quickly.
		HealthInterval: 20 * time.Millisecond,
		ShardTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := startServer(t, rt)

	full := searchVia(t, base, "docs", SearchRequest{Query: "alpha", K: 30, Disjunctive: true})
	if full.Partial || len(full.Hits) == 0 {
		t.Fatalf("healthy search: partial=%v hits=%d", full.Partial, len(full.Hits))
	}

	// Kill shard 1.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shardSrvs[1].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The very next searches may race the prober, but they must never fail:
	// either full (stale health, shard already gone → error path marks it
	// down and excludes it) — in all cases status 200.
	deadline := time.Now().Add(5 * time.Second)
	var degraded SearchResponse
	for {
		degraded = searchVia(t, base, "docs", SearchRequest{Query: "alpha", K: 30, Disjunctive: true})
		if degraded.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search never turned partial after shard death")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(degraded.Hits) == 0 || len(degraded.Hits) >= len(full.Hits) {
		t.Fatalf("degraded search hits = %d, want fewer than %d but not zero", len(degraded.Hits), len(full.Hits))
	}
	// Surviving hits must all belong to the live shard (mod 2 → shard 0
	// holds the even primary keys).
	for _, h := range degraded.Hits {
		if h.PK%2 != 0 {
			t.Errorf("degraded result contains pk %d owned by the dead shard", h.PK)
		}
	}

	var hz struct {
		Status        string `json:"status"`
		HealthyShards int    `json:"healthy_shards"`
	}
	status := getJSON(t, base+"/healthz", &hz)
	if status != http.StatusOK || hz.Status != "degraded" || hz.HealthyShards != 1 {
		t.Errorf("healthz after shard death: status=%d body status=%q healthy=%d, want 200/degraded/1",
			status, hz.Status, hz.HealthyShards)
	}

	// Stats still serve, with the dead shard reporting an error entry.
	var st map[string]any
	if status := getJSON(t, base+"/v1/stats", &st); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	cluster, _ := st["cluster"].(map[string]any)
	if cluster == nil || cluster["healthy_shards"].(float64) != 1 {
		t.Errorf("stats cluster section = %v, want healthy_shards 1", cluster)
	}
}

// TestRouterDegradedUnderStorm kills a shard in the middle of a concurrent
// query storm: every in-flight and subsequent request must complete with
// 200 (full or partial results), never an error status, a stall or a torn
// body.
func TestRouterDegradedUnderStorm(t *testing.T) {
	_, shards := newShardedFixture(t, 60, 2)
	_, base := startRouter(t, shards, RouterOptions{HealthInterval: 10 * time.Millisecond})

	const workers = 8
	// Each worker keeps searching until the shard has died and then sends
	// this many more, so the storm always straddles the kill.
	const afterKill = 10
	var wg sync.WaitGroup
	var failures atomic.Int64
	var sawPartial atomic.Int64
	var killed atomic.Bool
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left := afterKill; left > 0; {
				if killed.Load() {
					left--
				}
				status, data := postJSONNoFatal(base+"/v1/indexes/docs/search",
					SearchRequest{Query: "alpha", K: 20, Disjunctive: true})
				if status != http.StatusOK {
					failures.Add(1)
					errCh <- fmt.Errorf("status %d body %s", status, data)
					return
				}
				var resp SearchResponse
				if err := json.Unmarshal(data, &resp); err != nil {
					failures.Add(1)
					errCh <- fmt.Errorf("torn body: %v", err)
					return
				}
				if resp.Partial {
					sawPartial.Add(1)
				}
			}
		}()
	}
	// Let the storm get going, then kill shard 1's engine out from under
	// its backend.
	time.Sleep(20 * time.Millisecond)
	if err := shards[1].Close(); err != nil {
		t.Fatal(err)
	}
	killed.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("storm request failed: %v", err)
	}
	if failures.Load() > 0 {
		t.Fatalf("%d requests failed during shard death", failures.Load())
	}
	if sawPartial.Load() == 0 {
		t.Error("no request observed a partial result after the shard died")
	}
}

// postJSONNoFatal is postJSON without the testing.T plumbing, usable from
// storm goroutines (t.Fatal from a non-test goroutine is illegal).
func postJSONNoFatal(url string, body any) (int, []byte) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, buf
}

// TestRouterWriteRouting checks that routed writes land on the partitioner's
// shard and nowhere else, and that batches route per op.
func TestRouterWriteRouting(t *testing.T) {
	_, shards := newShardedFixture(t, 20, 2)
	_, base := startRouter(t, shards, RouterOptions{})

	// Insert four new rows through the router.
	rows := make([]map[string]json.RawMessage, 0, 4)
	for id := int64(101); id <= 104; id++ {
		rows = append(rows, map[string]json.RawMessage{
			"id":   json.RawMessage(fmt.Sprintf("%d", id)),
			"body": json.RawMessage(`"alpha routed"`),
			"val":  json.RawMessage("7"),
		})
	}
	status, data := postJSON(t, base+"/v1/tables/Docs/rows", InsertRowsRequest{Rows: rows})
	if status != http.StatusOK {
		t.Fatalf("routed insert status = %d, body %s", status, data)
	}
	for id := int64(101); id <= 104; id++ {
		owner := int(id % 2)
		for i, e := range shards {
			tbl, err := e.DB().Table("Docs")
			if err != nil {
				t.Fatal(err)
			}
			_, err = tbl.Get(id)
			if i == owner && err != nil {
				t.Errorf("row %d missing from owning shard %d: %v", id, owner, err)
			}
			if i != owner && err == nil {
				t.Errorf("row %d leaked onto shard %d", id, i)
			}
		}
	}

	// A batch mixing routed inserts, updates and deletes.
	pk103 := int64(103)
	pk104 := int64(104)
	ops := []BatchOp{
		{Op: "insert", Table: "Docs", Row: map[string]json.RawMessage{
			"id": json.RawMessage("105"), "body": json.RawMessage(`"beta routed"`), "val": json.RawMessage("9")}},
		{Op: "update", Table: "Docs", PK: &pk103, Set: map[string]json.RawMessage{"val": json.RawMessage("42")}},
		{Op: "delete", Table: "Docs", PK: &pk104},
	}
	status, data = postJSON(t, base+"/v1/batch", BatchRequest{Ops: ops})
	if status != http.StatusOK {
		t.Fatalf("routed batch status = %d, body %s", status, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil || br.Applied != 3 || br.Matched != 3 {
		t.Fatalf("routed batch response = %s (err %v), want applied 3 matched 3", data, err)
	}
	tbl, err := shards[1].DB().Table("Docs") // 103 and 105 route to shard 1
	if err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Get(103)
	if err != nil || row[2].F != 42 {
		t.Errorf("updated row 103 = %v (err %v), want val 42", row, err)
	}
	if _, err := tbl.Get(105); err != nil {
		t.Errorf("inserted row 105 missing: %v", err)
	}
	tbl0, err := shards[0].DB().Table("Docs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl0.Get(104); err == nil {
		t.Error("deleted row 104 still present")
	}

	// A delete of a primary key nobody holds is a 404, same as single-node.
	missing := int64(9999)
	status, data = postJSON(t, base+"/v1/batch", BatchRequest{Ops: []BatchOp{{Op: "delete", Table: "Docs", PK: &missing}}})
	if status != http.StatusNotFound {
		t.Errorf("delete of missing pk: status = %d (body %s), want 404", status, data)
	}
}

// TestHTTPBackendHedging stalls a shard's first response past the hedge
// threshold and checks that the backend issues exactly one hedge request
// and returns the fast answer.
func TestHTTPBackendHedging(t *testing.T) {
	var calls atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First request hangs well past the hedge threshold.
			time.Sleep(500 * time.Millisecond)
		}
		writeJSON(w, http.StatusOK, SearchResponse{Hits: []SearchHit{{PK: 7, Score: 1}}})
	}))
	defer shard.Close()

	b := NewHTTPBackend(shard.URL, 25*time.Millisecond)
	start := time.Now()
	resp, err := b.Search(context.Background(), "docs", SearchRequest{Query: "alpha", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 1 || resp.Hits[0].PK != 7 {
		t.Fatalf("hedged search returned %+v", resp.Hits)
	}
	if got := b.HedgedSearches(); got != 1 {
		t.Errorf("hedged searches = %d, want 1", got)
	}
	if elapsed := time.Since(start); elapsed >= 500*time.Millisecond {
		t.Errorf("hedged search took %v, should have beaten the 500ms straggler", elapsed)
	}
}
