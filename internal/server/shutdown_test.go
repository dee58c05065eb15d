package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
)

// TestGracefulShutdownUnderLoad races a storm of searches against a
// SIGTERM-style Shutdown.  The contract under test: every request that gets
// an HTTP response gets a whole one — a 200 whose body decodes as a full
// SearchResponse, or a clean 503 that decodes as an ErrorResponse — and
// never a torn body or a 500 from a half-closed engine; requests that lose
// the race entirely see a transport-level connection error, which is the
// client's retry signal.  Shutdown itself must return nil: Engine.Close ran
// after the drain, so its buffer-pool pin audit saw every search's pins
// released.  Run with -race (CI does).
func TestGracefulShutdownUnderLoad(t *testing.T) {
	srv, base, ti := newTestServer(t)

	const workers = 8
	var (
		ok200     atomic.Int64
		clean503  atomic.Int64
		transport atomic.Int64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := NewLoadClient(workers)
	body, _ := json.Marshal(SearchRequest{Query: "alpha common", K: 10, LoadRows: true})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(base+"/v1/indexes/docs/search", "application/json", bytes.NewReader(body))
				if err != nil {
					// The listener closed mid-request: a transport error,
					// not a torn HTTP response.
					transport.Add(1)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("torn response body (status %d): %v", resp.StatusCode, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var sr SearchResponse
					if err := json.Unmarshal(data, &sr); err != nil {
						t.Errorf("200 with undecodable body %q: %v", data, err)
						return
					}
					if len(sr.Hits) == 0 {
						t.Errorf("200 with zero hits during shutdown race: %s", data)
						return
					}
					ok200.Add(1)
				case http.StatusServiceUnavailable:
					var er ErrorResponse
					if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
						t.Errorf("503 with undecodable body %q", data)
						return
					}
					clean503.Add(1)
				default:
					t.Errorf("unexpected status %d during shutdown: %s", resp.StatusCode, data)
					return
				}
			}
		}()
	}

	// Let the storm develop, then shut down while requests are in flight.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown under load: %v (pin audit or drain failed)", err)
	}
	close(stop)
	wg.Wait()

	if ok200.Load() == 0 {
		t.Error("no search completed before shutdown; the race never happened")
	}
	t.Logf("outcomes: %d completed, %d clean 503, %d transport errors",
		ok200.Load(), clean503.Load(), transport.Load())

	// The fence holds after drain: a direct engine search fails fast with
	// the closed sentinel rather than touching closed storage.
	if _, err := ti.Search(core.SearchRequest{Query: "alpha", K: 1}); !errors.Is(err, core.ErrClosed) {
		t.Errorf("post-shutdown Search error = %v, want core.ErrClosed", err)
	}

	// Shutdown is idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestEmbeddedHandlerShutdownUnderLoad exercises the drain path Handler()
// embedding relies on: the server never owns a listener, so Shutdown's own
// in-flight counter — not http.Server.Shutdown — is what keeps Engine.Close
// from racing live handlers.  Responses must stay whole (200 or clean 503)
// and the close-time pin audit must pass.  Run with -race (CI does).
func TestEmbeddedHandlerShutdownUnderLoad(t *testing.T) {
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
	if err := tbl.Insert(relation.Row{relation.Int(1), relation.Str("alpha common"), relation.Float(1)}); err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(db, core.Options{})
	if _, err := engine.CreateTextIndex("docs", "Docs", "body", core.IndexOptions{
		Spec: view.Spec{Components: []view.Component{view.OwnColumn("Docs", "val")}},
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(engine, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(SearchRequest{Query: "alpha", K: 5})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/indexes/docs/search", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("torn response body: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var sr SearchResponse
					if err := json.Unmarshal(data, &sr); err != nil {
						t.Errorf("200 with undecodable body %q: %v", data, err)
						return
					}
				case http.StatusServiceUnavailable:
					var er ErrorResponse
					if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
						t.Errorf("503 with undecodable body %q", data)
						return
					}
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, data)
					return
				}
			}
		}()
	}

	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("embedded Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestShutdownWithoutTraffic covers the quiet path: no requests in flight,
// Shutdown still drains, closes the engine and audits pins exactly once.
func TestShutdownWithoutTraffic(t *testing.T) {
	srv, base, _ := newTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The handler (still reachable in-process) turns requests away cleanly.
	req, _ := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown handler status = %d, want 503", rec.Code)
	}
}
