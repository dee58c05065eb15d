package server

import (
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latBuckets is the number of power-of-two latency histogram buckets.
// Bucket 0 holds sub-microsecond observations; bucket b (b >= 1) holds
// [2^(b-1), 2^b) microseconds, so 40 buckets cover up to ~6 days — far past
// any request the HTTP server would keep alive.
const latBuckets = 40

// endpointMetrics accumulates one route's counters and latency histogram.
// All fields are atomics: Observe is called concurrently from every
// in-flight request with no shared lock.
type endpointMetrics struct {
	count      atomic.Uint64
	errors     atomic.Uint64 // responses with status >= 400
	totalNanos atomic.Uint64
	buckets    [latBuckets]atomic.Uint64
}

// Registry is the in-process metrics registry: per-route request counters
// and latency histograms, plus the process start time from which QPS is
// derived.  It has no external dependencies by design — /v1/stats renders a
// Snapshot as JSON, which is all the operational surface this engine needs.
type Registry struct {
	start time.Time

	mu     sync.RWMutex
	routes map[string]*endpointMetrics
}

// NewRegistry creates an empty registry anchored at the current time.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), routes: map[string]*endpointMetrics{}}
}

// route returns (creating on first use) the metrics cell for a route label.
func (r *Registry) route(label string) *endpointMetrics {
	r.mu.RLock()
	m, ok := r.routes[label]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.routes[label]; ok {
		return m
	}
	m = &endpointMetrics{}
	r.routes[label] = m
	return m
}

// Observe records one completed request against a route label.
func (r *Registry) Observe(label string, status int, d time.Duration) {
	r.route(label).observe(status, d)
}

// observe records one completed request into a resolved cell — the hot
// path, pure atomics with no map lookup or lock.
func (m *endpointMetrics) observe(status int, d time.Duration) {
	m.count.Add(1)
	if status >= 400 {
		m.errors.Add(1)
	}
	if d < 0 {
		d = 0
	}
	m.totalNanos.Add(uint64(d.Nanoseconds()))
	m.buckets[bucketFor(d)].Add(1)
}

// bucketFor maps a latency to its histogram bucket.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us))
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// bucketUpperUS is the inclusive upper bound, in microseconds, a histogram
// bucket reports for the observations it holds.
func bucketUpperUS(b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(uint64(1) << b)
}

// EndpointSnapshot is one route's metrics at a point in time.  Percentiles
// come from the power-of-two histogram, so they are upper bounds accurate
// to a factor of two; the repo benchmark computes exact percentiles from its
// own client-side samples.
type EndpointSnapshot struct {
	Route   string           `json:"route"`
	Count   uint64           `json:"count"`
	Errors  uint64           `json:"errors"`
	QPS     float64          `json:"qps"`
	AvgMS   float64          `json:"avg_ms"`
	P50MS   float64          `json:"p50_ms"`
	P99MS   float64          `json:"p99_ms"`
	P999MS  float64          `json:"p999_ms"`
	Buckets []BucketSnapshot `json:"latency_histogram,omitempty"`
}

// BucketSnapshot is one non-empty latency histogram bucket.
type BucketSnapshot struct {
	UpToUS float64 `json:"up_to_us"`
	Count  uint64  `json:"count"`
}

// Snapshot renders every route's metrics, sorted by route label.  QPS is
// averaged over the registry's lifetime — the honest number for a stats
// endpoint without a sliding-window dependency.
func (r *Registry) Snapshot() []EndpointSnapshot {
	uptime := time.Since(r.start).Seconds()
	r.mu.RLock()
	labels := make([]string, 0, len(r.routes))
	for l := range r.routes {
		labels = append(labels, l)
	}
	r.mu.RUnlock()
	sort.Strings(labels)

	out := make([]EndpointSnapshot, 0, len(labels))
	for _, l := range labels {
		m := r.route(l)
		var counts [latBuckets]uint64
		var total uint64
		for i := range counts {
			counts[i] = m.buckets[i].Load()
			total += counts[i]
		}
		s := EndpointSnapshot{
			Route:  l,
			Count:  m.count.Load(),
			Errors: m.errors.Load(),
		}
		if uptime > 0 {
			s.QPS = float64(s.Count) / uptime
		}
		if s.Count > 0 {
			s.AvgMS = float64(m.totalNanos.Load()) / float64(s.Count) / 1e6
		}
		s.P50MS = percentileMS(counts[:], total, 0.50)
		s.P99MS = percentileMS(counts[:], total, 0.99)
		s.P999MS = percentileMS(counts[:], total, 0.999)
		for i, c := range counts {
			if c > 0 {
				s.Buckets = append(s.Buckets, BucketSnapshot{UpToUS: bucketUpperUS(i), Count: c})
			}
		}
		out = append(out, s)
	}
	return out
}

// percentileMS returns the upper bound of the bucket where the cumulative
// count first reaches quantile q, in milliseconds.  The nearest-rank index
// rounds up: with 99 fast observations and 2 slow ones, p99 must report the
// slow bucket — the tail the histogram exists to surface — not the 99th
// fastest.
func percentileMS(counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need {
			return bucketUpperUS(i) / 1e3
		}
	}
	return bucketUpperUS(latBuckets-1) / 1e3
}

// Uptime reports how long the registry (and hence the server) has been up.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// statusRecorder captures the response status an instrumented handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers (the change
// subscription) can push partial responses through the instrumented wrapper.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tenantRoutePrefix labels the per-tenant latency cells in the registry, so
// /v1/stats can split them out of the per-endpoint listing.
const tenantRoutePrefix = "tenant:"

// instrument wraps a handler so every request is timed and recorded against
// the route label.  The label is fixed at registration, so the metrics cell
// is resolved once here rather than through the locked map on every request.
// Requests carrying a tenant header are additionally recorded into that
// tenant's own histogram, giving /v1/stats a per-tenant latency slice — the
// number that shows whether a hot neighbour's load reaches a quiet tenant.
func (r *Registry) instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	m := r.route(label)
	return func(w http.ResponseWriter, req *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h(rec, req)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		d := time.Since(start)
		m.observe(rec.status, d)
		if tenant := req.Header.Get(tenantHeader); tenant != "" {
			r.Observe(tenantRoutePrefix+tenant, rec.status, d)
		}
	}
}
