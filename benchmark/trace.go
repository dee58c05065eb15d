package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"svrdb/internal/codec"
	"svrdb/internal/core"
	"svrdb/internal/index"
	"svrdb/internal/postings"
	"svrdb/internal/server"
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
	"svrdb/internal/workload"
)

// The traced run measures every layer from outside: deltas of the public
// counters around fixed work, and spans the benchmark records around its own
// calls into each boundary.  Nothing inside the program is instrumented;
// spans inside it are a later change, which must keep these metric names.

// span is one recorded interval.  Parent is the id of the span that caused
// it (-1 for a root); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) begin(name string, parent, req int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes a span; a negative id (nothing was begun) is a no-op, also on a
// nil recorder.
func (r *spanRecorder) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *spanRecorder) duration(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// children returns the spans whose parent is id.
func (r *spanRecorder) children(id int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans[id+1:] {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanParent carries the causing span through a request's context, which
// the router derives its per-shard contexts from.
type spanParentKey struct{}

type spanParent struct{ id, req int }

// timedBackend decorates a router backend: calls made on behalf of a
// request whose context carries a span parent are recorded as its children.
type timedBackend struct {
	server.Backend
	rec *spanRecorder
}

func (b *timedBackend) begin(ctx context.Context, op string) int {
	p, ok := ctx.Value(spanParentKey{}).(spanParent)
	if !ok {
		return -1
	}
	return b.rec.begin("backend."+op+":"+b.Label(), p.id, p.req)
}

func (b *timedBackend) Search(ctx context.Context, index string, req server.SearchRequest) (*server.SearchResponse, error) {
	defer b.rec.end(b.begin(ctx, "search"))
	return b.Backend.Search(ctx, index, req)
}

func (b *timedBackend) TermStats(ctx context.Context, index, query string) (*server.TermStatsResponse, error) {
	defer b.rec.end(b.begin(ctx, "termstats"))
	return b.Backend.TermStats(ctx, index, query)
}

func (b *timedBackend) Batch(ctx context.Context, ops []server.BatchOp) (*server.BatchResponse, error) {
	defer b.rec.end(b.begin(ctx, "batch"))
	return b.Backend.Batch(ctx, ops)
}

// inProcess runs a request through the front end's handler without a
// socket, under a recorded span whose id travels in the request context.
func (st *stack) inProcess(rec *spanRecorder, name string, req int, path string, body []byte) (id int, data []byte, err error) {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	id = rec.begin(name, -1, req)
	st.handler.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanParentKey{}, spanParent{id, req})))
	rec.end(id)
	if w.Code != http.StatusOK {
		return id, nil, fmt.Errorf("POST %s in process: status %d: %.200s", path, w.Code, w.Body.Bytes())
	}
	return id, w.Body.Bytes(), nil
}

// counters is one reading of every public counter the trace differences.
type counters struct {
	pool  buffer.Stats
	file  pagefile.Stats
	idx   index.Stats // summed over both indexes of every shard
	short int
}

func (st *stack) readCounters() counters {
	var c counters
	for _, sh := range st.shards {
		ps, fs := sh.engine.Pool().Stats(), sh.engine.Pool().File().Stats()
		c.pool.Hits += ps.Hits
		c.pool.Misses += ps.Misses
		c.pool.Evictions += ps.Evictions
		c.pool.Flushes += ps.Flushes
		c.file.Reads += fs.Reads
		c.file.Writes += fs.Writes
		c.file.BytesRead += fs.BytesRead
		c.file.BytesWritten += fs.BytesWritten
		c.file.WALBytes += fs.WALBytes
		c.file.Fsyncs += fs.Fsyncs
		for _, ti := range []*core.TextIndex{sh.chunk, sh.cts} {
			is := ti.Stats()
			c.idx.TablePatches += is.TablePatches
			c.idx.ShortListPostingsWritten += is.ShortListPostingsWritten
			c.idx.Epoch += is.Epoch
			c.idx.LongListBytes += is.LongListBytes
			c.idx.LongListRawBytes += is.LongListRawBytes
			c.short += is.ShortListEntries
		}
	}
	return c
}

// retainedPages is the number of copy-on-write pages the epoch managers are
// holding back for pinned readers right now.
func (st *stack) retainedPages() int {
	n := 0
	for _, sh := range st.shards {
		n += sh.chunk.Stats().RetainedPages + sh.cts.Stats().RetainedPages
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fixedWork is the part of the traced run whose amount of work does not
// depend on the clock, so its counts repeat exactly for a seed: a fixed
// number of update batches, then one counted pass and one boundary pass over
// the query schedule and the layer probes.
type fixedWork struct {
	st      *stack
	o       *oracle
	t       *tally
	rec     *spanRecorder
	twin    *stack
	cur     *updateCursor
	batches int
	m       map[string]float64
	// selfSumUs is the sum of the search self times, for comparison with the
	// untraced median latency.
	selfSumUs float64
}

// writes is the fixed work done ahead of the write phase, reads the fixed
// work done after it: on the state, and with the oracle rankings, that the
// search phase then measures, so the self times of the boundary pass add up to
// that phase's latency.
func (w *fixedWork) writes() error { return w.steps(w.updateBatches, w.twin.shutdown) }
func (w *fixedWork) reads() error  { return w.steps(w.countedPass, w.boundaryPass, w.layerProbes) }

func (w *fixedWork) steps(steps ...func() error) error {
	for _, step := range steps {
		if err := step(); err != nil {
			return fmt.Errorf("traced fixed work: %w", err)
		}
	}
	return nil
}

// countedPass issues every schedule slot once over HTTP, single-threaded,
// and differences the counters around the pass.
func (w *fixedWork) countedPass() error {
	st := w.st
	// One unrecorded pass first, so the counted one starts from the pool
	// contents a serving process has, not from the faults of a fresh open;
	// single-threaded, so those contents repeat for a seed.
	for qi := range st.ds.queries {
		_, _, _, err := st.searchOnce(w.o, checkExact, qi)
		w.t.add(err)
		if err != nil {
			return err
		}
	}
	before := st.readCounters()
	var bytesOut, scanned, stopped int
	var perClass [numClasses][]float64
	for _, qi := range st.ds.schedule {
		lat, resp, size, err := st.searchOnce(w.o, checkExact, qi)
		w.t.add(err)
		if err != nil {
			return err
		}
		bytesOut += size
		scanned += resp.PostingsScanned
		if resp.Stopped {
			stopped++
		}
		c := st.ds.queries[qi].class
		perClass[c] = append(perClass[c], millis(lat))
	}
	after := st.readCounters()
	n := float64(len(st.ds.schedule))
	hits, misses := float64(after.pool.Hits-before.pool.Hits), float64(after.pool.Misses-before.pool.Misses)
	w.m["server.resp_bytes_per_search"] = float64(bytesOut) / n
	w.m["index.postings_scanned_per_query"] = float64(scanned) / n
	w.m["index.early_stop_ratio"] = float64(stopped) / n
	w.m["buffer.hit_ratio"] = ratio(hits, hits+misses)
	w.m["buffer.misses_per_query"] = misses / n
	w.m["buffer.evictions_per_query"] = float64(after.pool.Evictions-before.pool.Evictions) / n
	w.m["pagefile.reads_per_query"] = float64(after.file.Reads-before.file.Reads) / n
	w.m["pagefile.bytes_read_per_query"] = float64(after.file.BytesRead-before.file.BytesRead) / n
	for c := queryClass(0); c < numClasses; c++ {
		w.m["mix."+classNames[c]+"_p50_ms"] = median(perClass[c])
	}
	return nil
}

// globalStats sums the shards' term statistics the way the router's gather
// phase does, so a direct shard search ranks with the same IDF.
func (st *stack) globalStats(q *query) (*index.GlobalStats, error) {
	if !q.termScores || len(st.shards) == 1 {
		return nil, nil
	}
	g := &index.GlobalStats{}
	for _, sh := range st.shards {
		n, df, err := sh.cts.TermStats(strings.Join(q.terms, " "))
		if err != nil {
			return nil, err
		}
		g.NumDocs += n
		if g.DF == nil {
			g.DF = make([]int64, len(df))
		}
		for i, d := range df {
			g.DF[i] += d
		}
	}
	return g, nil
}

// boundaryPass issues every schedule slot once per boundary, outermost to
// innermost with the starting boundary rotated per request:
//
//	http      loopback POST to the front end
//	handler   the front end's Handler().ServeHTTP on a recorder; on the
//	          router its decorated backends record child spans
//	search    TextIndex.Search on every shard (the slowest counts)
//	topk      Method.TopK on every shard (the slowest counts)
//	tokenize  Analyzer.Tokenize + DistinctTerms
//
// A boundary's self time is its time minus the next boundary's, per request,
// and the median over the pass is reported.
func (w *fixedWork) boundaryPass() error {
	st, rec := w.st, w.rec
	analyzer := st.shards[0].engine.Analyzer()
	const nb = 5
	var httpSelf, routerSelf, handlerSelf, searchSelf, topkUs, tokenizeUs, calls, slowShare []float64
	var lookups int
	for i, qi := range st.ds.schedule {
		q := &st.ds.queries[qi]
		text0 := strings.Join(q.terms, " ")
		global, err := st.globalStats(q)
		if err != nil {
			return err
		}
		var d [nb]time.Duration
		var handlerSpan int
		for j := 0; j < nb; j++ {
			switch b := (i + j) % nb; b {
			case 0:
				id := rec.begin("http", -1, i)
				_, err = st.post(q.path, q.body)
				rec.end(id)
				d[b] = rec.duration(id)
			case 1:
				handlerSpan, _, err = st.inProcess(rec, "handler", i, q.path, q.body)
				d[b] = rec.duration(handlerSpan)
			case 2:
				for s, sh := range st.shards {
					id := rec.begin(fmt.Sprintf("core.search:shard-%d", s), -1, i)
					_, err = sh.index(q.index).Search(q.coreRequest(global))
					rec.end(id)
					d[b] = max(d[b], rec.duration(id))
					if err != nil {
						break
					}
				}
			case 3:
				terms := text.DistinctTerms(analyzer.Tokenize(text0))
				for s, sh := range st.shards {
					var qr *index.QueryResult
					id := rec.begin(fmt.Sprintf("index.topk:shard-%d", s), -1, i)
					qr, err = sh.index(q.index).Method().TopK(index.Query{Terms: terms, K: topK,
						Disjunctive: q.disjunct, WithTermScores: q.termScores, Global: global})
					rec.end(id)
					d[b] = max(d[b], rec.duration(id))
					if err != nil {
						break
					}
					lookups += qr.ScoreLookups
				}
			case 4:
				id := rec.begin("text.tokenize", -1, i)
				_ = text.DistinctTerms(analyzer.Tokenize(text0))
				rec.end(id)
				d[b] = rec.duration(id)
			}
			w.t.add(err)
			if err != nil {
				return err
			}
		}
		// On the router the handler's time splits into the backend calls it
		// waited for (their union: the shards run in parallel) and the rest.
		handlerCost := d[1]
		if st.rt != nil {
			kids := rec.children(handlerSpan)
			covered, slowest := unionAndSlowestSearch(kids)
			routerSelf = append(routerSelf, micros(d[1]-covered))
			calls = append(calls, float64(len(kids)))
			slowShare = append(slowShare, ratio(float64(slowest), float64(d[1])))
			handlerCost = slowest
		}
		httpSelf = append(httpSelf, micros(d[0]-d[1]))
		handlerSelf = append(handlerSelf, micros(handlerCost-d[2]))
		searchSelf = append(searchSelf, micros(d[2]-d[3]))
		topkUs = append(topkUs, micros(d[3]))
		tokenizeUs = append(tokenizeUs, micros(d[4]))
	}
	w.m["server.http_self_us"] = median(httpSelf)
	w.m["server.router_self_us"] = median(routerSelf)
	w.m["server.handler_self_us"] = median(handlerSelf)
	w.m["server.router_backend_calls_per_query"] = ratio(sum(calls), float64(len(calls)))
	w.m["server.router_slowest_shard_share"] = median(slowShare)
	w.m["core.search_self_us"] = median(searchSelf)
	w.m["index.topk_us"] = median(topkUs)
	w.m["text.tokenize_us"] = median(tokenizeUs)
	w.m["index.score_lookups_per_query"] = float64(lookups) / float64(len(st.ds.schedule))
	w.selfSumUs = w.m["server.http_self_us"] + w.m["server.router_self_us"] + w.m["server.handler_self_us"] +
		w.m["core.search_self_us"] + w.m["index.topk_us"]
	return nil
}

// unionAndSlowestSearch returns how much time the child spans cover between
// them (overlaps counted once) and the longest backend search among them.
func unionAndSlowestSearch(kids []span) (covered, slowest time.Duration) {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var end int64
	for _, k := range kids {
		if strings.HasPrefix(k.Name, "backend.search:") {
			slowest = max(slowest, time.Duration(k.End-k.Start))
		}
		if k.End <= end {
			continue
		}
		covered += time.Duration(k.End - max(k.Start, end))
		end = k.End
	}
	return covered, slowest
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// layerProbes times single layers through their public entry points, on the
// structures the mix's queries actually use.
func (w *fixedWork) layerProbes() error {
	st := w.st
	rng := rand.New(rand.NewSource(st.ds.params.Seed*7 + 1))

	// relation: the 10-pk join-back probe load_rows pays; btree: a Score
	// table probe, the per-candidate score look-up of the top-k loops.
	var getmany, probe []float64
	for _, sh := range st.shards {
		tbl, err := sh.engine.DB().Table(tableName)
		if err != nil {
			return err
		}
		var own []int64
		for doc := int64(1); doc <= int64(st.ds.params.NumDocs); doc++ {
			if sh.keep(doc) {
				own = append(own, doc)
			}
		}
		for i := 0; i < 200; i++ {
			pks := make([]int64, topK)
			for j := range pks {
				pks[j] = own[rng.Intn(len(own))]
			}
			start := time.Now()
			if _, err := tbl.GetMany(pks); err != nil {
				return err
			}
			getmany = append(getmany, micros(time.Since(start)))
		}
		ref := sh.chunk.Method().State().Score
		tree := btree.Open(sh.engine.Pool(), ref.Root, ref.Size)
		for i := 0; i < 40; i++ {
			const per = 100
			keys := make([][]byte, per)
			for j := range keys {
				keys[j] = codec.PutOrderedUint64(nil, uint64(own[rng.Intn(len(own))]))
			}
			start := time.Now()
			for _, k := range keys {
				if _, ok, err := tree.Get(k); err != nil || !ok {
					return fmt.Errorf("score table probe: found=%v err=%v", ok, err)
				}
			}
			probe = append(probe, float64(time.Since(start).Nanoseconds())/per)
		}
	}
	w.m["relation.getmany_us"] = median(getmany)
	w.m["btree.probe_ns"] = median(probe)

	// postings and blob: stream every long list the mix reads on docs_chunk
	// from its blob, twice; the second pass (pages resident unless the pool
	// is smaller than the lists) is the one timed.
	terms := map[string]bool{}
	for _, q := range st.ds.queries {
		for _, t := range q.terms {
			terms[t] = true
		}
	}
	sorted := make([]string, 0, len(terms))
	for t := range terms {
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)
	var decoded, listBytes, pages, lists int
	var elapsed time.Duration
	buf := make([]postings.Entry, 256)
	for pass := 0; pass < 2; pass++ {
		decoded, listBytes, pages, lists, elapsed = 0, 0, 0, 0, 0
		for _, sh := range st.shards {
			store := blob.NewStore(sh.engine.Pool())
			refs := sh.chunk.Method().State().LongRefs
			for _, t := range sorted {
				ref, ok := refs[t]
				if !ok {
					continue
				}
				start := time.Now()
				reader := store.NewReader(ref)
				list, err := postings.NewStreamChunkedList(reader)
				if err != nil {
					return err
				}
				for {
					n, err := list.NextBatch(buf)
					if err != nil {
						return err
					}
					if n == 0 {
						break
					}
					decoded += n
				}
				elapsed += time.Since(start)
				listBytes += int(ref.Length)
				pages += reader.PagesRead()
				lists++
			}
		}
	}
	w.m["postings.decode_mpps"] = ratio(float64(decoded), elapsed.Seconds()) / 1e6
	w.m["postings.bytes_per_posting"] = ratio(float64(listBytes), float64(decoded))
	w.m["blob.pages_per_list"] = ratio(float64(pages), float64(lists))
	c := st.readCounters()
	w.m["postings.compression_ratio"] = ratio(float64(c.idx.LongListRawBytes), float64(c.idx.LongListBytes))
	return nil
}

// handleBatch runs one /v1/batch through the front end's handler in process
// under a recorded span and checks the reply.
func (st *stack) handleBatch(rec *spanRecorder, name string, req int, updates []workload.ScoreUpdate, o *oracle) (time.Duration, error) {
	body, err := batchBody(updates)
	if err != nil {
		return 0, err
	}
	id, reply, err := st.inProcess(rec, name, req, "/v1/batch", body)
	if err == nil && o != nil {
		err = o.ack(reply, updates)
	}
	return rec.duration(id), err
}

// updateBatches applies a fixed number of 128-row batches.  On the stack
// under test each goes through one boundary in rotation: loopback HTTP, the
// handler in process, Engine.ApplyBatch directly with its closure timed
// inside.  The memory twin takes every batch too, alternately through its
// handler and directly.
func (w *fixedWork) updateBatches() error {
	st, rec := w.st, w.rec
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(writeProcs))
	before := st.readCounters()
	var directUs, flushCommitUs, closureUs, twinHandlerUs, twinDirectUs []float64
	retained := 0
	for i := 0; i < w.batches; i++ {
		updates := w.cur.take(batchRows)
		var err error
		switch i % 3 {
		case 0:
			id := rec.begin("http.batch", -1, i)
			_, err = st.batchOnce(w.o, updates)
			rec.end(id)
		case 1:
			_, err = st.handleBatch(rec, "handler.batch", i, updates, w.o)
		case 2:
			var total, closure time.Duration
			id := rec.begin("core.apply_batch", -1, i)
			total, closure, err = applyDirectAll(st.shards, updates)
			rec.end(id)
			if err == nil {
				w.o.apply(updates)
				directUs = append(directUs, micros(total))
				flushCommitUs = append(flushCommitUs, micros(total-closure))
				closureUs = append(closureUs, micros(closure))
			}
		}
		w.t.add(err)
		if err != nil {
			return err
		}
		var d time.Duration
		if i%2 == 0 {
			d, err = w.twin.handleBatch(rec, "twin.handler.batch", i, updates, nil)
			twinHandlerUs = append(twinHandlerUs, micros(d))
		} else {
			d, _, err = applyDirectAll(w.twin.shards, updates)
			twinDirectUs = append(twinDirectUs, micros(d))
		}
		if err != nil {
			return fmt.Errorf("memory twin: %w", err)
		}
		retained = max(retained, st.retainedPages())
	}
	after := st.readCounters()
	nb, rows := float64(w.batches), float64(w.batches*batchRows)
	written := float64(after.file.BytesWritten-before.file.BytesWritten) + float64(after.file.WALBytes-before.file.WALBytes)
	w.m["server.batch_handler_self_us"] = median(twinHandlerUs) - median(twinDirectUs)
	w.m["core.apply_batch_us"] = median(directUs)
	w.m["core.flush_commit_us_per_batch"] = median(flushCommitUs)
	w.m["core.durability_us_per_batch"] = median(directUs) - median(twinDirectUs)
	w.m["relation.update_us_per_row"] = median(closureUs) / batchRows
	w.m["index.short_list_entries_end"] = float64(after.short)
	w.m["index.short_postings_written_per_update"] = float64(after.idx.ShortListPostingsWritten-before.idx.ShortListPostingsWritten) / rows
	w.m["btree.patches_per_update"] = float64(after.idx.TablePatches-before.idx.TablePatches) / rows
	w.m["buffer.flushes_per_batch"] = float64(after.pool.Flushes-before.pool.Flushes) / nb
	w.m["pagefile.writes_per_batch"] = float64(after.file.Writes-before.file.Writes) / nb
	w.m["pagefile.wal_bytes_per_update"] = float64(after.file.WALBytes-before.file.WALBytes) / rows
	w.m["pagefile.fsyncs_per_batch"] = float64(after.file.Fsyncs-before.file.Fsyncs) / nb
	w.m["pagefile.write_amp"] = written / (rows * st.ds.rowBytes)
	w.m["epoch.advances_per_batch"] = float64(after.idx.Epoch-before.idx.Epoch) / nb
	w.m["epoch.retained_pages_max"] = float64(retained)
	return nil
}

// scanDrift is postings scanned per probe search in the last fifth of the
// storm over the first fifth: above 1 when short lists grow under a storm
// that nothing merges.
func scanDrift(probes []sample) float64 {
	fifth := len(probes) / 5
	if fifth == 0 {
		return 0
	}
	var first, last float64
	for i := 0; i < fifth; i++ {
		first += float64(probes[i].postings)
		last += float64(probes[len(probes)-1-i].postings)
	}
	return ratio(last, first)
}

// tracedOverheadPct compares the operations per window of the windows that
// recorded spans (odd) with those that did not (even).
func tracedOverheadPct(samples []sample, clk *phaseClock) float64 {
	n := make([]float64, clk.windows)
	for _, s := range samples {
		n[clk.windowOf(s.at)]++
	}
	var plain, traced []float64
	for w, c := range n {
		if w%2 == 1 {
			traced = append(traced, c)
		} else {
			plain = append(plain, c)
		}
	}
	return 100 * (1 - ratio(ratio(sum(traced), float64(len(traced))), ratio(sum(plain), float64(len(plain)))))
}

// latencies returns the samples' latencies in milliseconds.
func latencies(samples []sample) []float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = millis(s.lat)
	}
	return v
}

func lateP99Ms(samples []sample) float64 {
	var late []float64
	for _, s := range samples {
		late = append(late, millis(s.late))
	}
	return percentile(late, 0.99)
}
