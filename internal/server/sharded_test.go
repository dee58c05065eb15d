package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
	"svrdb/internal/workload"
)

// shardedTestParams is a corpus small enough to build 6 methods × 11
// engines in test time but rich enough that queries rank real top-k sets.
func shardedTestParams() workload.Params {
	return workload.Params{
		NumDocs:     300,
		TermsPerDoc: 40,
		VocabSize:   500,
		TermZipf:    1.0,
		ScoreMax:    100000,
		ScoreZipf:   0.75,
		Seed:        7,
	}
}

// newEmptyDocsEngine returns an engine holding an empty Docs(id, body,
// score) table.
func newEmptyDocsEngine(t *testing.T) *core.Engine {
	t.Helper()
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 4096))
	if _, err := db.CreateTable(relation.Schema{
		Name: "Docs",
		Columns: []relation.Column{
			{Name: "id", Kind: relation.KindInt64},
			{Name: "body", Kind: relation.KindString},
			{Name: "score", Kind: relation.KindFloat64},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(db, core.Options{})
}

// serveJSON drives one request through h in process and decodes a 200 body
// into dst.
func serveJSON(t *testing.T, h http.Handler, path string, body, dst any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", path, rec.Code, rec.Body.Bytes())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
}

func mustRaw(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// loadAndIndex inserts the whole corpus through h's /v1/batch — which, for
// a router, places every document on the shard its partitioner names — and
// then builds the "docs" index of the given kind on every engine behind h.
func loadAndIndex(t *testing.T, h http.Handler, engines []*core.Engine, corpus *workload.Corpus, kind core.MethodKind) {
	t.Helper()
	var ops []BatchOp
	err := corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		ops = append(ops, BatchOp{Op: "insert", Table: "Docs", Row: map[string]json.RawMessage{
			"id":    mustRaw(t, int64(doc)),
			"body":  mustRaw(t, strings.Join(tokens, " ")),
			"score": mustRaw(t, corpus.Score(doc)),
		}})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp BatchResponse
	serveJSON(t, h, "/v1/batch", BatchRequest{Ops: ops}, &resp)
	total := 0
	for _, e := range engines {
		if _, err := e.CreateTextIndex("docs", "Docs", "body", core.IndexOptions{
			Method: kind, Spec: workload.DocsSpec(), MinChunkSize: 8,
		}); err != nil {
			t.Fatal(err)
		}
		tbl, err := e.DB().Table("Docs")
		if err != nil {
			t.Fatal(err)
		}
		total += tbl.Len()
	}
	if total != corpus.NumDocs() {
		t.Fatalf("%d engines hold %d documents, want %d", len(engines), total, corpus.NumDocs())
	}
}

// TestShardedEquivalence is the sharding correctness property: for every
// method, the router over any hash partitioning of the corpus across 1–4
// shards returns byte-identical top-k (ids, scores, order) to a single
// server, conjunctive and disjunctive, before and after an update trace,
// and — for the TermScore methods — under combined SVR+TFIDF ranking, where
// the router pins global collection statistics.  Writes and searches go
// through Router.Handler and Server.Handler in process.
func TestShardedEquivalence(t *testing.T) {
	corpus := workload.Generate(shardedTestParams())
	qp := workload.DefaultQueryParams()
	qp.NumQueries = 12
	qp.Seed = 11
	queries := workload.GenerateQueries(corpus, qp)

	up := workload.DefaultUpdateParams()
	up.NumUpdates = 400
	up.Seed = 13
	var updateOps []BatchOp
	for _, u := range workload.GenerateUpdates(corpus, up) {
		pk := int64(u.Doc)
		updateOps = append(updateOps, BatchOp{Op: "update", Table: "Docs", PK: &pk,
			Set: map[string]json.RawMessage{"score": mustRaw(t, u.NewScore)}})
	}

	shutdown := func(name string, fn func(context.Context) error) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fn(ctx); err != nil {
			t.Errorf("%s shutdown: %v", name, err)
		}
	}

	for _, kind := range core.AllMethods() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			singleEngine := newEmptyDocsEngine(t)
			srv := New(singleEngine, Options{})
			defer shutdown("single server", srv.Shutdown)
			single := srv.Handler()
			loadAndIndex(t, single, []*core.Engine{singleEngine}, corpus, kind)
			withTS := kind == core.MethodIDTermScore || kind == core.MethodChunkTermScore

			shardCounts := []int{1, 2, 3, 4}
			routers := make([]http.Handler, len(shardCounts))
			for i, n := range shardCounts {
				engines := make([]*core.Engine, n)
				backends := make([]Backend, n)
				for s := range engines {
					engines[s] = newEmptyDocsEngine(t)
					backends[s] = NewEngineBackend(fmt.Sprintf("shard-%d", s), engines[s], true)
				}
				rt, err := NewRouter(backends, RouterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer shutdown(fmt.Sprintf("%d-shard router", n), rt.Shutdown)
				routers[i] = rt.Handler()
				loadAndIndex(t, routers[i], engines, corpus, kind)
			}

			check := func(phase string) {
				for qi, terms := range queries {
					query := strings.Join(terms, " ")
					for _, k := range []int{1, 10} {
						reqs := []SearchRequest{
							{Query: query, K: k},
							{Query: query, K: k, Disjunctive: true},
						}
						if withTS {
							reqs = append(reqs, SearchRequest{Query: query, K: k, WithTermScores: true})
						}
						for _, req := range reqs {
							var want SearchResponse
							serveJSON(t, single, "/v1/indexes/docs/search", req, &want)
							for i, rt := range routers {
								var got SearchResponse
								serveJSON(t, rt, "/v1/indexes/docs/search", req, &got)
								label := fmt.Sprintf("%s shards=%d q%d k=%d disj=%v termscores=%v",
									phase, shardCounts[i], qi, k, req.Disjunctive, req.WithTermScores)
								requireSameHits(t, label, want, got)
							}
						}
					}
				}
			}

			check("built")
			var resp BatchResponse
			serveJSON(t, single, "/v1/batch", BatchRequest{Ops: updateOps}, &resp)
			for _, rt := range routers {
				serveJSON(t, rt, "/v1/batch", BatchRequest{Ops: updateOps}, &resp)
			}
			check("updated")
		})
	}
}

// requireSameHits requires byte-identical rankings: same length, same ids in
// the same order, bitwise-equal scores.
func requireSameHits(t *testing.T, label string, want, got SearchResponse) {
	t.Helper()
	if len(want.Hits) != len(got.Hits) {
		t.Fatalf("%s: single server returned %d hits, router %d", label, len(want.Hits), len(got.Hits))
	}
	for i := range want.Hits {
		w, g := want.Hits[i], got.Hits[i]
		if w.PK != g.PK {
			t.Fatalf("%s: hit %d: single pk %d, router pk %d", label, i, w.PK, g.PK)
		}
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: hit %d (doc %d): single score %v (%x), router %v (%x)",
				label, i, w.PK, w.Score, math.Float64bits(w.Score), g.Score, math.Float64bits(g.Score))
		}
	}
	if got.Partial {
		t.Fatalf("%s: router over healthy in-process shards reported a partial result", label)
	}
}
