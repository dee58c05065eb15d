package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzRoutes are the body-taking routes: every one decodes through the one
// request decoder.
var fuzzRoutes = []string{
	"/v1/indexes/docs/search",
	"/v1/indexes/docs/termstats",
	"/v1/tables/Docs/rows",
	"/v1/batch",
	"/v1/indexes",
	"/v1/tenants",
}

// FuzzRequestBody posts arbitrary bytes to each body-taking route of a
// server over a tiny in-memory engine.  Whatever arrives, the handler must
// not panic and must answer a JSON body with a status below 500: a malformed
// request is the client's mistake (4xx), never the server's.  The engine
// keeps whatever valid writes the fuzzer finds, so later inputs also meet
// duplicate keys, existing indexes and registered tenants.
func FuzzRequestBody(f *testing.F) {
	for route := range fuzzRoutes {
		for _, tc := range searchValidationCases {
			f.Add(uint8(route), []byte(tc.body))
		}
	}
	for route, body := range []string{
		`{"terms":["alpha","common"],"k":3,"disjunctive":true,"load_rows":true}`,
		`{"query":"alpha beta"}`,
		`{"rows":[{"id":7,"body":"fuzz alpha","val":1.5}]}`,
		`{"ops":[{"op":"update","table":"Docs","pk":1,"set":{"val":2}},{"op":"delete","table":"Docs","pk":9,"ignore_missing":true}]}`,
		`{"name":"docs2","table":"Docs","column":"body","method":"score-threshold","spec":"val","threshold_ratio":-1,"min_chunk_size":-3}`,
		`{"name":"acme","max_rows":-1,"max_bytes":9}`,
	} {
		f.Add(uint8(route), []byte(body))
	}

	srv := New(newDocsEngine(f, nil), Options{})
	f.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d, body %s", path, body, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST %s %q: status %d with a non-JSON body %q", path, body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 400 {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("POST %s %q: status %d body %q is not an ErrorResponse", path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
