package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"svrdb/internal/index"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/workload"
)

// Options controls the scale and instrumentation of an experiment run.
type Options struct {
	// Scale multiplies the default synthetic collection size (1.0 = the
	// harness default of 8000 documents x 200 tokens; the paper's full-size
	// collection is roughly 6x that with 2000-token documents).
	Scale float64
	// NumUpdates is the length of the score-update trace.
	NumUpdates int
	// NumQueries is the number of queries measured per data point.
	NumQueries int
	// K is the number of results requested per query.
	K int
	// MeanStep is the mean score-update magnitude (the paper's default 100).
	MeanStep float64
	// ColdCache evicts the buffer pool before every measured query, matching
	// the paper's cold-cache query methodology (§5.2).
	ColdCache bool
	// ReadLatency charges a simulated latency on every page read, emulating
	// the disk the paper's cold-cache numbers include.  Zero measures pure
	// CPU + page-count behaviour.
	ReadLatency time.Duration
	// PoolPages is the buffer-pool capacity in pages (the equivalent of the
	// paper's 100 MB BerkeleyDB cache).
	PoolPages int
	// Seed drives all random generation.
	Seed int64
}

// DefaultOptions returns laptop-friendly defaults.
func DefaultOptions() Options {
	return Options{
		Scale:       0.25,
		NumUpdates:  4000,
		NumQueries:  20,
		K:           10,
		MeanStep:    100,
		ColdCache:   true,
		ReadLatency: 0,
		PoolPages:   4096,
		Seed:        1,
	}
}

func (o Options) normalized() Options {
	d := DefaultOptions()
	if o.Scale <= 0 {
		o.Scale = d.Scale
	}
	if o.NumUpdates <= 0 {
		o.NumUpdates = d.NumUpdates
	}
	if o.NumQueries <= 0 {
		o.NumQueries = d.NumQueries
	}
	if o.K <= 0 {
		o.K = d.K
	}
	if o.MeanStep <= 0 {
		o.MeanStep = d.MeanStep
	}
	if o.PoolPages <= 0 {
		o.PoolPages = d.PoolPages
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Table is the printable result of one experiment.
type Table struct {
	Name    string
	Caption string
	Header  []string
	Rows    [][]string
	// Notes carries interpretation hints (what shape to expect versus the
	// paper).
	Notes []string
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("== %s ==\n%s\n", t.Name, t.Caption))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%-*s", widths[i], c))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	sb.WriteString("\n")
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// Experiment is a named, runnable reproduction of one table or figure.
type Experiment struct {
	// ID is the short name used on the command line (e.g. "table2").
	ID string
	// Paper locates the experiment in the paper.
	Paper string
	// Description says what the experiment shows.
	Description string
	// Run executes the experiment.
	Run func(Options) (*Table, error)
}

// checkedPools collects every buffer pool an experiment run creates so that
// withPinCheck can audit pin accounting when the run finishes.  The harness
// is single-threaded, so a plain slice suffices.
var checkedPools []*buffer.Pool

// registerPool enrolls a pool in the end-of-run pin audit.
func registerPool(p *buffer.Pool) { checkedPools = append(checkedPools, p) }

// withPinCheck wraps an experiment so that, after a successful run, every
// pool the run created is audited with CheckPins: a pin leak or over-release
// anywhere in the measured paths (including the patch fast path) fails the
// experiment — and hence tier-1, which smoke-runs every experiment — instead
// of shipping silently.
func withPinCheck(run func(Options) (*Table, error)) func(Options) (*Table, error) {
	return func(opts Options) (*Table, error) {
		checkedPools = checkedPools[:0]
		t, err := run(opts)
		if err != nil {
			return nil, err
		}
		for _, p := range checkedPools {
			if err := p.CheckPins(); err != nil {
				return nil, err
			}
		}
		checkedPools = checkedPools[:0]
		return t, nil
	}
}

// Registry returns every experiment keyed by ID, in presentation order.
// Every Run is wrapped with withPinCheck.
func Registry() []Experiment {
	experiments := []Experiment{
		{ID: "table1", Paper: "Table 1", Description: "Size of the long inverted lists per method", Run: RunTable1},
		{ID: "table2", Paper: "Table 2", Description: "Chunk-ratio sweep: update vs query time for several mean update steps", Run: RunTable2},
		{ID: "figure7", Paper: "Figure 7", Description: "Update and query time per method as the number of score updates grows", Run: RunFigure7},
		{ID: "update", Paper: "§5.3 (update cost)", Description: "Update throughput: batched ApplyUpdates vs the one-at-a-time loop, pure and mixed with queries", Run: RunUpdateFigure},
		{ID: "figure8", Paper: "Figure 8", Description: "Query time as the number of desired results k grows", Run: RunFigure8},
		{ID: "step", Paper: "§5.3.4", Description: "Mean update step sweep: Chunk (tuned ratio) vs ID", Run: RunStepSweep},
		{ID: "figure9", Paper: "Figure 9", Description: "Combined SVR+term scoring: Chunk-TermScore vs ID-TermScore", Run: RunFigure9},
		{ID: "figure10", Paper: "Figure 10", Description: "Disjunctive vs conjunctive query performance", Run: RunFigure10},
		{ID: "table3", Paper: "Table 3", Description: "Incremental document insertions: query, score update and insertion cost", Run: RunTable3},
		{ID: "threshold", Paper: "§5.3.1", Description: "Threshold-ratio sweep for the Score-Threshold method", Run: RunThresholdSweep},
		{ID: "selectivity", Paper: "§5.3.7 / §5.1", Description: "Query-selectivity sweep across the three keyword classes", Run: RunSelectivity},
		{ID: "concurrent", Paper: "§5 (read scaling)", Description: "Concurrent query serving: aggregate QPS at 1/2/4/GOMAXPROCS query workers", Run: RunConcurrent},
		{ID: "archive", Paper: "§5.3.7", Description: "Archive-style (real-data analogue) workload across methods", Run: RunArchive},
		{ID: "coldstart", Paper: "§5.2 (serving methodology)", Description: "Durable cold start: open+warm time and on-disk size overhead vs the in-memory pagefile", Run: RunColdstart},
		{ID: "compression", Paper: "§5.2 (storage layout)", Description: "Posting-block compression: stored vs fixed-width bytes, ratio, cold-query time and pages per query", Run: RunCompression},
		{ID: "ablation-chunking", Paper: "§4.3.2 (design choice)", Description: "Chunk-boundary policy ablation: score-ratio vs uniform boundaries", Run: RunChunkPolicyAblation},
		{ID: "ablation-fancy", Paper: "§4.3.3 (design choice)", Description: "Fancy-list length ablation for Chunk-TermScore", Run: RunFancyListAblation},
	}
	for i := range experiments {
		experiments[i].Run = withPinCheck(experiments[i].Run)
	}
	return experiments
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared measurement plumbing -----------------------------------------------

// rig bundles one built index with its private storage so that I/O counters
// are attributable to the method under test.
type rig struct {
	method index.Method
	pool   *buffer.Pool
	file   pagefile.File
}

// newRig builds a method over the corpus with its own buffer pool.
func newRig(kind string, corpus *workload.Corpus, opts Options, cfg index.Config) (*rig, error) {
	file := pagefile.MustNewMem(pagefile.DefaultPageSize)
	file.SetReadLatency(opts.ReadLatency)
	pool := buffer.MustNew(file, opts.PoolPages)
	registerPool(pool)
	cfg.Pool = pool
	m, err := index.New(kind, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Build(corpus, corpus.ScoreFunc()); err != nil {
		return nil, err
	}
	return &rig{method: m, pool: pool, file: file}, nil
}

// corpusFor generates (and caches per options) the synthetic corpus.
var corpusCache = map[string]*workload.Corpus{}

func corpusFor(opts Options) *workload.Corpus {
	params := workload.DefaultParams().Scaled(opts.Scale)
	params.Seed = opts.Seed
	key := fmt.Sprintf("%d-%d-%d-%d", params.NumDocs, params.TermsPerDoc, params.VocabSize, params.Seed)
	if c, ok := corpusCache[key]; ok {
		return c
	}
	c := workload.Generate(params)
	corpusCache[key] = c
	return c
}

// applyUpdates replays a score-update trace and returns the average time per
// update.  maxMeasured caps how many updates are actually applied for
// methods whose per-update cost is pathological (the Score method), matching
// the paper's observation that its updates are orders of magnitude slower;
// the average is still per applied update.
func applyUpdates(r *rig, updates []workload.ScoreUpdate, maxMeasured int) (time.Duration, int, error) {
	n := len(updates)
	if maxMeasured > 0 && n > maxMeasured {
		n = maxMeasured
	}
	if n == 0 {
		return 0, 0, nil
	}
	start := time.Now()
	for _, u := range updates[:n] {
		if err := r.method.UpdateScore(u.Doc, u.NewScore); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start) / time.Duration(n), n, nil
}

// queryStats aggregates query-side measurements.
type queryStats struct {
	avgTime     time.Duration
	avgPostings float64
	avgPages    float64
	results     int
}

// runQueries measures the query workload on the rig.  With ColdCache the
// pool is evicted before every query, as in §5.2.
func runQueries(r *rig, queries [][]string, opts Options, k int, disjunctive, withTermScores bool) (queryStats, error) {
	var total time.Duration
	var postings int
	var pages uint64
	var results int
	ran := 0
	for _, terms := range queries {
		if opts.ColdCache {
			if err := r.pool.EvictAll(); err != nil {
				return queryStats{}, err
			}
		}
		before := r.pool.Stats().Misses
		start := time.Now()
		res, err := r.method.TopK(index.Query{Terms: terms, K: k, Disjunctive: disjunctive, WithTermScores: withTermScores})
		if err != nil {
			return queryStats{}, err
		}
		total += time.Since(start)
		postings += res.PostingsScanned
		pages += r.pool.Stats().Misses - before
		results += len(res.Results)
		ran++
	}
	if ran == 0 {
		return queryStats{}, nil
	}
	return queryStats{
		avgTime:     total / time.Duration(ran),
		avgPostings: float64(postings) / float64(ran),
		avgPages:    float64(pages) / float64(ran),
		results:     results,
	}, nil
}

// fmtDur renders a duration in milliseconds with three significant decimals,
// matching the paper's "times in ms" tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

func fmtMB(bytes uint64) string {
	return fmt.Sprintf("%.2f", float64(bytes)/(1024*1024))
}
