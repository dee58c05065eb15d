package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

const (
	// subRuns is how many complete sub-runs an untraced run is made of; the
	// run's --seconds are shared out among them.
	subRuns = 3
	// numWindows is how many equal windows a search phase is cut into; rates
	// and percentiles are taken per window and their median reported, so one
	// slow stretch cannot set the figure.  A window holds some 650 searches
	// (450 on the router), so its p95 has thirty samples beyond it and its p99
	// six; over a run's nine windows the p99 has fifty.
	numWindows = 3
)

// workloadSpec describes one of the four serving workloads.  README.md
// carries the paragraph on why each exists; BENCHMARK.json the one-liner.
type workloadSpec struct {
	name   string
	shards int
	router bool
	// batchesPerSecond sizes the write phases: that many 128-row batches per
	// second of --seconds, shared out among the sub-runs.  A read workload
	// writes 24 batches a sub-run, three updates for every four documents,
	// enough to exercise, price and check its write path; update-storm writes
	// 144, four and a half updates per document, for about as long as it then
	// searches.
	batchesPerSecond float64
	// storm makes the write phase a storm: beside the closed-loop writer an
	// open-loop probe issues searches.
	storm bool
	// poolPages sizes each shard's buffer pool from its working set and
	// database size, both in pages.
	poolPages func(workingSet, db int) int
}

// wholeDatabase is a pool that never evicts: the database plus room for the
// copy-on-write pages the write phases allocate.
func wholeDatabase(_, db int) int { return db + db/4 + 1024 }

// eighthOfWorkingSet makes the database much larger than the program's
// cache: one pass over the queries touches eight times what the pool holds.
func eighthOfWorkingSet(ws, _ int) int { return max(minColdPoolPages, ws/8) }

var workloadSpecs = []*workloadSpec{
	{name: "search-warm", shards: 1, batchesPerSecond: 6, poolPages: wholeDatabase},
	{name: "search-cold", shards: 1, batchesPerSecond: 6, poolPages: eighthOfWorkingSet},
	{name: "update-storm", shards: 1, batchesPerSecond: 36, storm: true, poolPages: wholeDatabase},
	{name: "router-search", shards: 2, router: true, batchesPerSecond: 6, poolPages: wholeDatabase},
}

// clients is how many load connections run at once at most: the searcher or
// the writer, and on update-storm the probe beside the writer.
func (s *workloadSpec) clients() int {
	if s.storm {
		return 2
	}
	return 1
}

func specByName(name string) *workloadSpec {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s
		}
	}
	return nil
}

const (
	// searchProcs and writeProcs are the two values GOMAXPROCS takes in a run.
	// Set-up and the closed-loop search phases use one processor: load
	// generator and server share the process, a closed-loop client and its
	// server never run at the same time, and on one processor the hand-over
	// between them is a goroutine switch.  On two it is a sleep and a wake-up
	// of a virtual processor per request, which on a shared host is what the
	// run then measures: with two, the same code's search_p50_ms ranged over
	// 0.90-1.51 ms from run to run while with one it stayed within 0.96-1.10.
	// The write phase uses two: update-storm's writer and probe must overlap,
	// and a commit blocks in system calls, each of which makes a lone
	// processor change hands.
	searchProcs = 1
	writeProcs  = 2
	// probeRate is the open-loop probe's fixed rate on update-storm.
	probeRate = 200.0
	// readShare is the part of --seconds the search phases measure for; the
	// write phases before them are sized in batches to take about the rest on
	// update-storm and a tenth of that on the read workloads.
	readShare = 0.6
	// flushPolicy is the engine default, stated in every result.
	flushPolicy = "WAL append + fsync, data write-back + fsync and catalog rewrite per acknowledged batch (engine default)"
)

type metricDef struct {
	name, unit string
}

// endToEnd and perLayer name every metric in the order BENCHMARK.json lists
// them; smoke_test.go holds the two lists equal.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"search_qps", "1/s"}, {"search_p50_ms", "ms"}, {"search_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"}, {"rss_peak_mb", "MiB"}, {"space_amp", "ratio"}, {"write_amp", "ratio"},
}

var perLayer = []metricDef{
	{"server.http_self_us", "us"}, {"server.handler_self_us", "us"}, {"server.resp_bytes_per_search", "B"},
	{"server.batch_handler_self_us", "us"}, {"server.router_self_us", "us"},
	{"server.router_backend_calls_per_query", "count"}, {"server.router_slowest_shard_share", "ratio"},
	{"core.search_self_us", "us"}, {"core.apply_batch_us", "us"}, {"core.flush_commit_us_per_batch", "us"},
	{"core.durability_us_per_batch", "us"}, {"core.open_us", "us"}, {"core.open_ms", "ms"},
	{"text.tokenize_us", "us"},
	{"relation.update_us_per_row", "us"}, {"relation.getmany_us", "us"},
	{"index.topk_us", "us"}, {"index.postings_scanned_per_query", "count"}, {"index.score_lookups_per_query", "count"},
	{"index.early_stop_ratio", "ratio"}, {"index.short_list_entries_end", "count"},
	{"index.short_postings_written_per_update", "count"}, {"index.scan_drift", "ratio"},
	{"postings.decode_mpps", "M/s"}, {"postings.bytes_per_posting", "B"}, {"postings.compression_ratio", "ratio"},
	{"btree.probe_ns", "ns"}, {"btree.patches_per_update", "count"},
	{"blob.pages_per_list", "count"},
	{"buffer.hit_ratio", "ratio"}, {"buffer.misses_per_query", "count"}, {"buffer.evictions_per_query", "count"},
	{"buffer.flushes_per_batch", "count"}, {"buffer.pool_pages", "count"}, {"buffer.working_set_pages", "count"},
	{"pagefile.reads_per_query", "count"}, {"pagefile.bytes_read_per_query", "B"}, {"pagefile.writes_per_batch", "count"},
	{"pagefile.wal_bytes_per_update", "B"}, {"pagefile.fsyncs_per_batch", "count"}, {"pagefile.write_amp", "ratio"},
	{"pagefile.space_amp_end", "ratio"},
	{"epoch.retained_pages_max", "count"}, {"epoch.advances_per_batch", "count"},
	{"mix.conj2_p50_ms", "ms"}, {"mix.disj2_p50_ms", "ms"}, {"mix.conj3sel_p50_ms", "ms"},
	{"mix.rows_p50_ms", "ms"}, {"mix.tscore_p50_ms", "ms"},
	{"loadgen.search_p99_ms", "ms"}, {"loadgen.search_p50_raw_ms", "ms"}, {"loadgen.host_factor", "ratio"}, {"loadgen.late_ms_p99", "ms"},
	{"proc.allocs_per_op", "count"}, {"proc.gc_pause_ms_total", "ms"}, {"proc.setup_rss_peak_mb", "MiB"},
	{"trace.overhead_pct", "%"},
	{"write.rows_per_s", "1/s"}, {"write.commit_p50_ms", "ms"}, {"write.commit_p95_ms", "ms"},
	{"write.probe_p50_ms", "ms"}, {"write.probe_p99_ms", "ms"},
}

// config is one run's parameters.  The command line sets the first six;
// the rest are fixed by defaultConfig, and only the smoke test, which must
// finish in seconds, shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string
	outDir   string

	// scale sizes the collection: 1 is 8 000 documents x 100 tokens over
	// 6 400 terms.
	scale float64
	// subRuns is how many sub-runs the untraced run makes (see runWorkload).
	subRuns int
	// warmup is the unmeasured search load before each search phase.
	warmup time.Duration
	// traceBatches is the traced run's fixed number of update batches.
	traceBatches int
}

func defaultConfig() *config {
	return &config{scale: 0.5, subRuns: subRuns, warmup: time.Second, traceBatches: 120}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result file; its first four fields are the line the
// run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Env       environment       `json:"env"`
	// Info carries what the metrics do not: sample counts, pool and
	// working-set sizes, the first failure.
	Info map[string]any `json:"info"`
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// restartPeakRSS makes the kernel start the resident-set high-water mark
// again from the current resident set (Linux: "5" to /proc/self/clear_refs).
// Where the kernel does not offer that, the mark keeps the set-ups' peak.
func restartPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is the process's resident-set high-water mark since the last
// successful restartPeakRSS.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setUp is everything a sub-run does before it measures: generate the
// dataset, load and index it, apply the set-up-time updates, close, measure the
// working set and the reopen cycles, reopen, start serving, build the oracle.
func setUp(cfg *config, spec *workloadSpec, seed int64, dir string, rec *spanRecorder) (*stack, *oracle, error) {
	ds, err := newDataset(seed, cfg.scale)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st, err := buildStack(spec, ds, dir, rec)
	if err != nil {
		return nil, nil, err
	}
	o := newOracle(ds)
	o.rankAll()
	return st, o, nil
}

// runWorkload performs one run of one workload and returns its report.  An
// untraced run is subRuns complete sub-runs, each on a collection of its own
// and update trace drawn from the seed, and reports every metric as the median
// of theirs.  What a search costs varies by some 8 % from one seed to the next
// (postings scanned per query by 12 %: which documents the updates' focus set
// holds decides how far the scans go), and by more when the host has a bad ten
// seconds; a median of three takes a good part of the first and most of the
// second out of a run's figure.  The traced run is one sub-run.
func runWorkload(cfg *config) (*report, error) {
	spec := specByName(cfg.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	env, err := checkEnvironment(cfg, spec)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d", spec.name, os.Getpid()))
	defer os.RemoveAll(runDir)

	run := &runState{cfg: cfg, spec: spec, t: &tally{}}
	if run.ref, err = newHostRef(); err != nil {
		return nil, err
	}
	n := cfg.subRuns
	if cfg.trace {
		run.rec, n = newSpanRecorder(), 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	var subs []map[string]float64
	var info map[string]any
	for i := 0; i < n; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("sub-%d", i))
		var values map[string]float64
		if values, info, err = run.subRun(cfg.seed*subRuns+int64(i), dir); err != nil {
			return nil, err
		}
		// The result file keeps each sub-run's reported metrics, and how the
		// host ran during its search phase.
		kept := map[string]float64{"loadgen.host_factor": values["loadgen.host_factor"], "loadgen.search_p50_raw_ms": values["loadgen.search_p50_raw_ms"]}
		for _, d := range defs {
			kept[d.name] = values[d.name]
		}
		subs = append(subs, kept)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	t := run.t
	rep := &report{Metrics: map[string]metric{}, Workload: spec.name, Traced: cfg.trace, Env: env, Info: info}
	rep.Attempted, rep.Failed = t.attempted, t.failed
	rep.Correct = t.failed == 0
	for _, d := range defs {
		var v []float64
		for _, values := range subs {
			v = append(v, values[d.name])
		}
		rep.Metrics[d.name] = metric{Value: median(v), Unit: d.unit}
	}
	rep.Info["sub_runs"] = subs
	rep.Info["clients"] = spec.clients()
	rep.Info["error_rate"] = ratio(float64(t.failed), float64(t.attempted))
	if t.firstErr != nil {
		rep.Info["first_failure"] = t.firstErr.Error()
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := run.rec.write(filepath.Join(cfg.outDir, "trace-"+spec.name+".json")); err != nil {
			return nil, err
		}
		rep.Info["spans"] = len(run.rec.spans)
	}
	return rep, nil
}

// runState is what the sub-runs of a run share.
type runState struct {
	cfg  *config
	spec *workloadSpec
	t    *tally
	ref  *hostRef
	rec  *spanRecorder // traced run only
}

// subRun is one complete cycle on a collection generated from seed: set-up,
// write phase, search phase, and the check of the state they leave behind.
// It returns every metric it measured (end-to-end and, in the traced run,
// per-layer) and what else the result file says about it.
func (run *runState) subRun(seed int64, dir string) (map[string]float64, map[string]any, error) {
	cfg, spec, t, ref, rec := run.cfg, run.spec, run.t, run.ref, run.rec

	// Each sub-run starts from a collected heap handed back to the system, and
	// restarts the resident-set high-water mark, so its peaks are its own.
	debug.FreeOSMemory()
	restartPeakRSS()
	start := time.Now()
	st, o, err := setUp(cfg, spec, seed, dir, rec)
	if err != nil {
		return nil, nil, err
	}
	setupS := time.Since(start).Seconds()

	// rss_peak_mb is the serving phases' peak: the mark is restarted again
	// after the set-up, whose own transient peak (twice the serving one, and
	// anywhere within 140-175 MiB as the collector's timing falls) is reported
	// per layer.
	setupPeak := peakRSSMiB()
	restarted := restartPeakRSS()

	cur := newUpdateCursor(st.ds)
	m := map[string]float64{}
	spaceAmp := float64(st.diskBytes) / float64(st.ds.userBytes)

	var fixed *fixedWork
	if cfg.trace {
		twin, err := buildTwin(spec, st.ds, st.dbPages+st.dbPages/4+1024)
		if err != nil {
			return nil, nil, err
		}
		fixed = &fixedWork{st: st, o: o, t: t, rec: rec, twin: twin, cur: cur, batches: cfg.traceBatches, m: m}
		if err := fixed.writes(); err != nil {
			return nil, nil, err
		}
	}

	// The write phase comes first, at writeProcs: a closed-loop writer, and
	// on update-storm the probe beside it.  Its length is a number of batches,
	// not a time, so that the state the search phase then measures does not
	// depend on how fast the host, or a later change, writes.  It has no
	// warm-up: what it reports is a median, and no end-to-end metric is a time
	// of it.
	retained := newRetainedSampler(st, cfg.trace)
	runtime.GOMAXPROCS(writeProcs)
	before := st.readCounters()
	writeStart := time.Now()
	probes, commits := st.writePhase(o, t, cur, int(spec.batchesPerSecond*cfg.seconds/subRuns))
	writeElapsed := time.Since(writeStart)
	after := st.readCounters()
	runtime.GOMAXPROCS(searchProcs)
	m["epoch.retained_pages_max"] = max(m["epoch.retained_pages_max"], float64(retained.stop()))

	// The search phase: closed-loop searchers at searchProcs over the state
	// the write phase left (on update-storm: short lists grown by a storm
	// that nothing merged).  Its warm-up is the same load, unrecorded, so
	// pools, connections and scratch buffers are in their steady state; the
	// garbage of set-up and write phase is collected first so the measured
	// searches do not pay for it.
	o.rankAll()
	if cfg.trace {
		if err := fixed.reads(); err != nil {
			return nil, nil, err
		}
	}
	runtime.GC()
	st.closedLoopSearch(o, t, newPhaseClock(cfg.warmup, 1, nil, ref))
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	searchClk := newPhaseClock(time.Duration(readShare*cfg.seconds/subRuns*float64(time.Second)), numWindows, rec, ref)
	cpu0 := cpuTime()
	searches := st.closedLoopSearch(o, t, searchClk)
	searchCPU := cpuTime() - cpu0
	runtime.ReadMemStats(&mem1)
	servingPeak := peakRSSMiB()

	// Every time of the search phase is reported at the reference host speed:
	// as measured, divided by how much slower than refNominal the host ran the
	// reference tasks between the searches (see hostRef).  The traced run
	// reports the factor and the median as measured beside them.
	ss := summarize(searches, searchClk)
	host := hostFactor(searchClk.tasks)
	var refTime time.Duration
	for _, d := range searchClk.tasks {
		refTime += d
	}
	rows := float64(len(commits) * batchRows)
	written := float64(after.file.BytesWritten-before.file.BytesWritten) + float64(after.file.WALBytes-before.file.WALBytes)
	m["setup_s"] = setupS
	m["search_qps"] = ss.perSecond * host
	m["search_p50_ms"] = ss.p50 / host
	m["search_p95_ms"] = ss.p95 / host
	m["cpu_ms_per_op"] = ratio(millis(searchCPU-refTime), float64(len(searches))) / host
	m["rss_peak_mb"] = servingPeak
	m["space_amp"] = spaceAmp
	m["write_amp"] = ratio(written, rows*st.ds.rowBytes)

	m["write.rows_per_s"] = ratio(rows, writeElapsed.Seconds())
	m["write.commit_p50_ms"] = percentile(latencies(commits), 0.5)
	m["write.commit_p95_ms"] = percentile(latencies(commits), 0.95)
	m["write.probe_p50_ms"] = percentile(latencies(probes), 0.5)
	m["write.probe_p99_ms"] = percentile(latencies(probes), 0.99)
	m["index.scan_drift"] = scanDrift(probes)
	m["loadgen.search_p99_ms"] = ss.p99 / host
	m["loadgen.search_p50_raw_ms"] = ss.p50
	m["loadgen.host_factor"] = host
	m["loadgen.late_ms_p99"] = lateP99Ms(probes)
	m["proc.allocs_per_op"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), float64(len(searches)))
	m["proc.gc_pause_ms_total"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["proc.setup_rss_peak_mb"] = setupPeak
	m["trace.overhead_pct"] = tracedOverheadPct(searches, searchClk)
	m["buffer.pool_pages"] = float64(st.poolPages * spec.shards)
	m["buffer.working_set_pages"] = float64(st.workingSetPages)
	m["core.open_us"] = median(st.coreOpenU)
	m["core.open_ms"] = median(st.openMs)
	m["pagefile.space_amp_end"] = float64(st.fileBytes()) / float64(st.ds.userBytes)

	postCheck(st, o, t)

	info := map[string]any{
		"dataset_seed":              seed,
		"pool_pages_per_shard":      st.poolPages,
		"working_set_pages":         st.workingSetPages,
		"database_pages":            st.dbPages,
		"distinct_queries":          len(st.ds.queries),
		"documents":                 st.ds.params.NumDocs,
		"search_samples":            ss.n,
		"search_samples_per_window": ss.perWindow,
		"commit_samples":            len(commits),
		"probe_samples":             len(probes),
		"search_seconds":            searchClk.elapsed.Seconds(),
		"write_seconds":             writeElapsed.Seconds(),
		"reference_tasks":           len(searchClk.tasks),
		"rss_peak_restarted":        restarted,
	}
	if cfg.trace {
		info["search_self_sum_us"] = fixed.selfSumUs
		info["untraced_search_p50_us"] = ss.p50 * 1000
	}
	return m, info, nil
}

// writePhase runs the closed-loop writer for its fixed number of batches and,
// on update-storm, the open-loop probe beside it for as long as it writes.
func (st *stack) writePhase(o *oracle, t *tally, cur *updateCursor, batches int) (probes, commits []sample) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if st.spec.storm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probes = st.openLoopProbe(o, t, probeRate, stop)
		}()
	}
	commits = st.closedLoopWrite(o, t, cur, batches)
	close(stop)
	wg.Wait()
	return probes, commits
}

// retainedSampler polls the epoch managers' retained-page count during the
// write phase of a traced run.
type retainedSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  int
}

func newRetainedSampler(st *stack, enabled bool) *retainedSampler {
	s := &retainedSampler{done: make(chan struct{})}
	if !enabled {
		return s
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				s.max = max(s.max, st.retainedPages())
			}
		}
	}()
	return s
}

func (s *retainedSampler) stop() int {
	close(s.done)
	s.wg.Wait()
	return s.max
}

// postCheck verifies the state a sub-run leaves behind.  The search phase
// has already checked every query's ranking against the last acknowledged
// scores; with the load stopped the pin audit must pass, then the server is
// shut down, the files are reopened as after a restart, and every distinct
// query plus a sample of per-document scores must still match: an
// acknowledged write is a durable one.
func postCheck(st *stack, o *oracle, t *tally) {
	o.rankAll()
	t.add(st.checkPins())
	if err := st.shutdown(); err != nil {
		t.add(fmt.Errorf("shutdown: %w", err))
		return
	}
	if err := st.open(st.poolPages); err != nil {
		t.add(fmt.Errorf("reopen: %w", err))
		return
	}
	if err := st.serve(nil); err != nil {
		t.add(errors.Join(fmt.Errorf("serve after reopen: %w", err), st.closeEngines()))
		return
	}
	for qi := range st.ds.queries {
		_, _, _, err := st.searchOnce(o, checkExact, qi)
		t.add(err)
	}
	for doc := 1; doc <= st.ds.params.NumDocs; doc += max(1, st.ds.params.NumDocs/200) {
		for _, sh := range st.shards {
			if !sh.keep(int64(doc)) {
				continue
			}
			got, ok, err := sh.chunk.ScoreOf(int64(doc))
			if err == nil && (!ok || !closeEnough(got, o.scores[doc])) {
				err = fmt.Errorf("after reopen doc %d scores %g (present %v), last acknowledged %g", doc, got, ok, o.scores[doc])
			}
			t.add(err)
		}
	}
	if err := st.shutdown(); err != nil {
		t.add(fmt.Errorf("final shutdown: %w", err))
	}
}
