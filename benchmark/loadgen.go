package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"svrdb/internal/server"
	"svrdb/internal/workload"
)

// sample is one timed operation of a load phase.
type sample struct {
	at       time.Duration // when it started (open loop: was due), since phase start
	lat      time.Duration // to the last byte of the reply
	late     time.Duration // open loop only: how long after `at` it was sent
	postings int
}

// tally counts operations against the number attempted; a non-200, a
// transport error, a timeout and an oracle mismatch all count as failed.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  error
}

func (t *tally) add(err error) {
	t.mu.Lock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	t.mu.Unlock()
}

// post sends one request over loopback HTTP and reads the whole reply.
func (st *stack) post(path string, body []byte) ([]byte, error) {
	resp, err := st.client.Post(st.baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, data)
	}
	return data, nil
}

func decodeSearch(data []byte) (*searchResponse, error) {
	var resp searchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("search response: %w", err)
	}
	return &resp, nil
}

// checkMode selects how a read phase verifies responses.
type checkMode int

const (
	// checkExact compares against the oracle's ranking: no write is in
	// flight, so the acknowledged scores are the scores.
	checkExact checkMode = iota
	// checkShapeOnly is for searches racing a writer: the response may be
	// ranked under either side of an unacknowledged batch.
	checkShapeOnly
)

func (o *oracle) verify(mode checkMode, qi int, resp *searchResponse) error {
	if mode == checkExact {
		return o.check(qi, resp)
	}
	return o.checkShape(&o.ds.queries[qi], resp)
}

// searchOnce issues query qi over HTTP, times it to the last byte and
// verifies the reply.
func (st *stack) searchOnce(o *oracle, mode checkMode, qi int) (lat time.Duration, resp *searchResponse, size int, err error) {
	q := &st.ds.queries[qi]
	start := time.Now()
	data, err := st.post(q.path, q.body)
	lat = time.Since(start)
	if err != nil {
		return lat, nil, 0, err
	}
	resp, err = decodeSearch(data)
	if err == nil {
		err = o.verify(mode, qi, resp)
	}
	if err != nil {
		err = fmt.Errorf("%s %v: %w", classNames[q.class], q.terms, err)
	}
	return lat, resp, len(data), err
}

// phaseClock maps a running phase onto its windows; spans are recorded for
// operations starting in odd windows when rec is set (the traced run's
// overhead measurement).  The searcher runs the host reference task every
// refEvery searches; the clock keeps the task times and takes them out of the
// windows' lengths.
type phaseClock struct {
	start   time.Time
	dur     time.Duration
	windows int
	window  time.Duration
	rec     *spanRecorder
	ref     *hostRef
	// tasks are the reference tasks' times; refSpent is their sum per window.
	tasks    []time.Duration
	refSpent []time.Duration
	// elapsed is set by finish: the phase's measured length, which exceeds
	// dur by the tail of the last operation.
	elapsed time.Duration
}

func newPhaseClock(dur time.Duration, windows int, rec *spanRecorder, ref *hostRef) *phaseClock {
	return &phaseClock{start: time.Now(), dur: dur, windows: windows, window: dur / time.Duration(windows),
		rec: rec, ref: ref, refSpent: make([]time.Duration, windows)}
}

// finish stamps the phase's measured length once every client has returned.
func (c *phaseClock) finish() { c.elapsed = time.Since(c.start) }

func (c *phaseClock) windowOf(at time.Duration) int {
	return min(int(at/c.window), c.windows-1)
}

// traced reports whether an operation starting at `at` records a span.
func (c *phaseClock) traced(at time.Duration) bool {
	return c.rec != nil && c.windowOf(at)%2 == 1
}

// reference runs the host reference task once, at `at` into the phase.
func (c *phaseClock) reference(at time.Duration) {
	d := c.ref.task()
	c.tasks = append(c.tasks, d)
	c.refSpent[c.windowOf(at)] += d
}

// closedLoopSearch runs one closed-loop searcher for the phase: it walks the
// shuffled schedule and sends its next query only when the previous reply has
// been read and checked against the oracle's ranking (no write is in flight,
// so the acknowledged scores are the scores).
func (st *stack) closedLoopSearch(o *oracle, t *tally, clk *phaseClock) []sample {
	var out []sample
	sched := st.ds.schedule
	for i := 0; ; i++ {
		at := time.Since(clk.start)
		if at >= clk.dur {
			clk.finish()
			return out
		}
		if i%refEvery == 0 {
			clk.reference(at)
			at = time.Since(clk.start)
		}
		qi := sched[i%len(sched)]
		span := -1
		if clk.traced(at) {
			span = clk.rec.begin("client.search", -1, i)
		}
		lat, resp, _, err := st.searchOnce(o, checkExact, qi)
		clk.rec.end(span)
		t.add(err)
		if err == nil {
			out = append(out, sample{at: at, lat: lat, postings: resp.PostingsScanned})
		}
	}
}

// updateCursor hands out consecutive slices of the non-wrapping update
// trace, generating the next chunk when the current one is used up (a few
// milliseconds every ~65 000 rows, between two batches, inside no timed
// operation).
type updateCursor struct {
	ds    *dataset
	chunk int
	rest  []workload.ScoreUpdate
}

func newUpdateCursor(ds *dataset) *updateCursor {
	return &updateCursor{ds: ds, rest: ds.updates[ds.preApply:]}
}

func (u *updateCursor) take(n int) []workload.ScoreUpdate {
	if len(u.rest) < n {
		u.chunk++
		u.rest = u.ds.updateChunk(u.chunk)
	}
	out := u.rest[:n]
	u.rest = u.rest[n:]
	return out
}

// batchOnce sends one /v1/batch over HTTP and checks that every op was
// applied to an existing row; on success the oracle learns the new scores.
func (st *stack) batchOnce(o *oracle, updates []workload.ScoreUpdate) (time.Duration, error) {
	body, err := batchBody(updates)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	data, err := st.post("/v1/batch", body)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	return lat, o.ack(data, updates)
}

// ack checks a batch reply and records the acknowledged scores.
func (o *oracle) ack(reply []byte, updates []workload.ScoreUpdate) error {
	var resp server.BatchResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("batch response: %w", err)
	}
	if resp.Applied != len(updates) || resp.Matched != len(updates) {
		return fmt.Errorf("batch of %d: applied %d, matched %d", len(updates), resp.Applied, resp.Matched)
	}
	o.apply(updates)
	return nil
}

// closedLoopWrite runs one closed-loop writer for a fixed number of
// batches: 128 score updates per /v1/batch, the next batch sent when the
// previous one has been acknowledged as durable.
func (st *stack) closedLoopWrite(o *oracle, t *tally, cur *updateCursor, batches int) []sample {
	var out []sample
	start := time.Now()
	for i := 0; i < batches; i++ {
		at := time.Since(start)
		lat, err := st.batchOnce(o, cur.take(batchRows))
		t.add(err)
		if err == nil {
			out = append(out, sample{at: at, lat: lat})
		}
	}
	return out
}

// openLoopProbe sends plain searches on a fixed schedule over one
// connection until stop is closed, whatever the replies do: request i is due
// at i/rate, its latency runs from that due time, and how late it was
// actually sent is kept so the generator's own lag is visible.
func (st *stack) openLoopProbe(o *oracle, t *tally, rate float64, stop <-chan struct{}) []sample {
	var out []sample
	interval := time.Duration(float64(time.Second) / rate)
	sched := st.ds.probeSchedule
	start := time.Now()
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case <-stop:
			return out
		default:
		}
		sent := time.Since(start)
		lat, resp, _, err := st.searchOnce(o, checkShapeOnly, sched[i%len(sched)])
		t.add(err)
		if err == nil {
			out = append(out, sample{at: due, lat: sent - due + lat, late: sent - due, postings: resp.PostingsScanned})
		}
	}
}

// latencyStats summarises a phase's samples as measured.  Rates and
// percentiles are taken per window and the median window reported: the
// sandbox's processors are shared, and a neighbour's burst should cost one
// window, not the run.  A window's length leaves out the reference tasks run
// in it.
type latencyStats struct {
	n         int
	perSecond float64 // operations started per second, in the median window
	p50       float64 // ms
	p95       float64 // ms
	p99       float64 // ms
	perWindow []int
}

func summarize(samples []sample, clk *phaseClock) latencyStats {
	st := latencyStats{n: len(samples), perWindow: make([]int, clk.windows)}
	win := make([][]float64, clk.windows)
	for _, s := range samples {
		w := clk.windowOf(s.at)
		st.perWindow[w]++
		win[w] = append(win[w], millis(s.lat))
	}
	var rate, p50s, p95s, p99s []float64
	for i, w := range win {
		rate = append(rate, float64(len(w))/(clk.window-clk.refSpent[i]).Seconds())
		if len(w) > 0 {
			p50s = append(p50s, median(w))
			p95s = append(p95s, percentile(w, 0.95))
			p99s = append(p99s, percentile(w, 0.99))
		}
	}
	st.perSecond, st.p50, st.p95, st.p99 = median(rate), median(p50s), median(p95s), median(p99s)
	return st
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the middle value (mean of the two middle values for an
// even count) of a sample it is free to reorder; 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of a sample it is
// free to reorder.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(q*float64(len(v))+0.999999) - 1
	return v[max(0, min(i, len(v)-1))]
}
