package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the serving-layer load generator: it drives a query mix over
// real HTTP — TCP, JSON codec, mux, metrics, the works — so that serving
// overhead versus a direct core.TextIndex.Search call is measured rather
// than guessed.  It is the one HTTP load generator outside benchmark/: the
// root BenchmarkServeQuery runs RunSearchLoad, and the repo benchmark's
// stack drives its own schedule through the same NewLoadClient.

// LoadResult aggregates one load run.  Percentiles are exact (computed from
// every request's recorded latency), unlike the /v1/stats histogram bounds.
type LoadResult struct {
	Workers int
	Queries int
	Elapsed time.Duration
	// QPS is Queries / Elapsed.
	QPS float64
	// P50 and P99 summarize per-request latency as a client saw it.
	P50, P99 time.Duration
}

// NewLoadClient returns an http.Client tuned for loopback load generation:
// enough idle connections that every worker keeps one alive, so steady-state
// requests measure request handling, not TCP handshakes.
func NewLoadClient(workers int) *http.Client {
	transport := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}
	return &http.Client{Transport: transport, Timeout: 30 * time.Second}
}

// RunSearchLoad replays total queries from the pool across workers
// goroutines against POST {baseURL}/v1/indexes/{index}/search.  Work is
// handed out through an atomic cursor (the same discipline as
// bench.RunConcurrentQueries) so the division of labour is even regardless
// of per-query cost variance.  Every response body is fully read and
// decoded — a torn or non-200 response fails the run.
func RunSearchLoad(client *http.Client, baseURL, index string, queries [][]string, k, workers, total int) (LoadResult, error) {
	if client == nil {
		client = NewLoadClient(workers)
	}
	url := fmt.Sprintf("%s/v1/indexes/%s/search", baseURL, index)

	// Pre-encode each query's request body once: the generator should spend
	// its time in the server, not in its own JSON encoder.
	bodies := make([][]byte, len(queries))
	for i, terms := range queries {
		b, err := json.Marshal(SearchRequest{Terms: terms, K: k})
		if err != nil {
			return LoadResult{}, err
		}
		bodies[i] = b
	}

	var cursor atomic.Int64
	var (
		errMu    sync.Mutex
		firstErr error
	)
	latencies := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, total/workers+1)
			for {
				i := cursor.Add(1) - 1
				if i >= int64(total) {
					break
				}
				body := bodies[i%int64(len(bodies))]
				reqStart := time.Now()
				if err := doSearch(client, url, body); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					break
				}
				lats = append(lats, time.Since(reqStart))
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return LoadResult{}, firstErr
	}

	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	res := LoadResult{Workers: workers, Queries: len(all), Elapsed: elapsed}
	if elapsed > 0 {
		res.QPS = float64(len(all)) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50 = all[nearestRank(len(all), 0.50)]
		res.P99 = all[nearestRank(len(all), 0.99)]
	}
	return res, nil
}

// nearestRank returns the index of the nearest-rank q-quantile in a sorted
// series of n observations — the same ceil(q*n) convention the metrics
// registry's histogram percentiles use, so /v1/stats and load-run results
// agree at the rank boundaries (a naive (n*99)/100 index reports the
// maximum as p99 at exactly 100 samples).
func nearestRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// doSearch issues one search request and validates the response end to end.
func doSearch(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("server: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: search returned %d: %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return fmt.Errorf("server: undecodable search response: %w", err)
	}
	return nil
}
