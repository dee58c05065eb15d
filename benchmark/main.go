// Command benchmark is the repository's benchmark: four serving workloads
// over the real stack (core.Engine with a Chunk and a Chunk-TermScore index
// behind server.Server / server.Router on loopback HTTP), eight end-to-end
// metrics, and a traced run that attributes cost to each layer from outside.
// README.md is the manual; BENCHMARK.json the contract.
//
//	benchmark --workload search-warm --seed 1 --seconds 12 --trace 0
//	benchmark --workload all --runs 10 --out baseline/run-A.json,baseline/run-B.json
//	benchmark --compare baseline/run-A.json baseline/run-B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// environment is recorded in every result file.
type environment struct {
	NumCPU      int     `json:"nproc"`
	SearchProcs int     `json:"gomaxprocs_search"`
	WriteProcs  int     `json:"gomaxprocs_write"`
	GoVersion   string  `json:"go_version"`
	GitCommit   string  `json:"git_commit"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	PageSize    int     `json:"page_size"`
	GOGC        string  `json:"gogc"`
	FlushPolicy string  `json:"flush_policy"`
	Seconds     float64 `json:"measured_seconds"`
	Clients     int     `json:"clients"`
	ProbeRate   float64 `json:"probe_rate_per_s,omitempty"`
}

// checkEnvironment sets GOMAXPROCS for set-up and the search phases and
// refuses to run when the write phases' GOMAXPROCS or the workload's clients
// would outnumber the host's processors: load generator and server share
// this process, and an oversubscribed box measures the scheduler.
func checkEnvironment(cfg *config, spec *workloadSpec) (environment, error) {
	nproc := runtime.NumCPU()
	if writeProcs > nproc || spec.clients() > nproc {
		return environment{}, fmt.Errorf("workload %s needs GOMAXPROCS %d and drives %d client connections but only %d processors are available", spec.name, writeProcs, spec.clients(), nproc)
	}
	runtime.GOMAXPROCS(searchProcs)
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	env := environment{
		NumCPU: nproc, SearchProcs: searchProcs, WriteProcs: writeProcs, GoVersion: runtime.Version(), GitCommit: gitCommit(),
		Seed: cfg.seed, Scale: cfg.scale, PageSize: pageSize, GOGC: gogc, FlushPolicy: flushPolicy,
		Seconds: cfg.seconds, Clients: spec.clients(),
	}
	if spec.storm {
		env.ProbeRate = probeRate
	}
	return env, nil
}

// gitCommit is the revision stamped into the binary, when the build had a
// repository around it; the driver's checkouts do not.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := defaultConfig()
	var trace, runs int
	var compare bool
	var out string
	fs.StringVar(&cfg.workload, "workload", "all", "search-warm, search-cold, update-storm, router-search, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	fs.StringVar(&cfg.dataDir, "data", filepath.Join(".bench_build", "data"), "directory for the run's database files (removed afterwards)")
	fs.StringVar(&cfg.outDir, "outdir", filepath.Join("benchmark", "out"), "directory for result and span files")
	fs.IntVar(&runs, "runs", 1, "with --workload all: untraced runs per workload and run set, seeds seed..seed+runs-1")
	fs.StringVar(&out, "out", "", "with --workload all: write the run set here; a,b writes two sets whose runs alternate")
	fs.BoolVar(&compare, "compare", false, "compare two run sets: --compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark --compare a.json b.json")
			return 2
		}
		return compareRunSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if cfg.seconds <= 0 || runs < 1 {
		fmt.Fprintln(stderr, "benchmark: --seconds and --runs must be positive")
		return 2
	}
	if cfg.workload == "all" {
		if out == "" {
			out = filepath.Join(cfg.outDir, "run.json")
		}
		return runAll(cfg, runs, strings.Split(out, ","), stdout, stderr)
	}

	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	printReport(stdout, rep)
	if err := writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-trace%d.json", rep.Workload, trace)), rep); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	// The contract's result line: exactly these four keys, last on stdout.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed; first: %v\n", rep.Workload, rep.Failed, rep.Attempted, rep.Info["first_failure"])
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints the human-readable form: environment, every metric by
// name with its unit, and the run's sample counts.
func printReport(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", rep.Workload, e.Seed, rep.Traced)
	fmt.Fprintf(w, "  env: nproc %d  GOMAXPROCS %d (write phases %d)  %s  commit %s  GOGC %s  page %d B  scale %g  clients %d",
		e.NumCPU, e.SearchProcs, e.WriteProcs, e.GoVersion, e.GitCommit, e.GOGC, e.PageSize, e.Scale, e.Clients)
	if e.ProbeRate > 0 {
		fmt.Fprintf(w, " (1 closed-loop writer + 1 open-loop probe at %g/s)", e.ProbeRate)
	}
	fmt.Fprintf(w, "\n  flush policy: %s\n", e.FlushPolicy)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	keys := make([]string, 0, len(rep.Info))
	for k := range rep.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != "sub_runs" { // the result file has them
			fmt.Fprintf(w, "  info %-37s %v\n", k, rep.Info[k])
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
}

// runSet is what --workload all writes and --compare reads: per workload,
// the untraced runs (one per seed) and one traced run.
type runSet struct {
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Runs   []*report `json:"runs"`
	Traced *report   `json:"traced"`
}

// runAll runs every workload in child processes of its own, so set-up time,
// peak RSS and CPU belong to one run, and gathers the children's result files
// into run sets.  With several --out files it makes that many sets of the
// same code at once, a seed's runs taking turns and the set that goes first
// rotating, so that a drift of the host lands on every set alike.
func runAll(cfg *config, runs int, outs []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	sets := make([]*runSet, len(outs))
	for i := range sets {
		sets[i] = &runSet{Workloads: map[string]*workloadRuns{}}
	}
	status := 0
	child := func(spec *workloadSpec, seed int64, trace int) (*report, error) {
		cmd := exec.Command(self, "--workload", spec.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds),
			"--trace", fmt.Sprint(trace), "--data", cfg.dataDir, "--outdir", cfg.outDir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s (seed %d, trace %d): %v\n", spec.name, seed, trace, err)
			status = 1
		}
		data, err := os.ReadFile(filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-trace%d.json", spec.name, trace)))
		if err != nil {
			return nil, err
		}
		rep := &report{}
		return rep, json.Unmarshal(data, rep)
	}
	for _, spec := range workloadSpecs {
		for _, set := range sets {
			set.Workloads[spec.name] = &workloadRuns{}
		}
		for i := 0; i <= runs; i++ {
			trace, seed := 0, cfg.seed+int64(i)
			if i == runs {
				trace, seed = 1, cfg.seed
			}
			for j := range sets {
				wr := sets[(i+j)%len(sets)].Workloads[spec.name]
				rep, err := child(spec, seed, trace)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %v\n", err)
					return 1
				}
				if trace == 1 {
					wr.Traced = rep
				} else {
					wr.Runs = append(wr.Runs, rep)
				}
			}
		}
	}
	for i, out := range outs {
		if err := writeJSON(out, sets[i]); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "run set written to %s\n", out)
	}
	return status
}

// bounds reads each end-to-end metric's bound and direction from
// BENCHMARK.json, the one place they are fixed.
func bounds(path string) (map[string]float64, map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	bound, lower := map[string]float64{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		bound[m.Name], lower[m.Name] = m.Bound, m.Better == "lower"
	}
	return bound, lower, nil
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(n=4) default), which the
// contract's spread is defined with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		i := int(pos)
		i = max(1, min(i, len(s)-1))
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// compareRunSets prints one row per workload x end-to-end metric: both
// medians, b over a, each side's run-to-run spread, and the verdict under
// the metric's bound.  A metric whose spread exceeds its bound on either
// side is unresolved, not unchanged.
func compareRunSets(aPath, bPath string, stdout, stderr io.Writer) int {
	var sets [2]runSet
	for i, p := range []string{aPath, bPath} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", p, err)
			return 2
		}
	}
	bound, lower, err := bounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v (run from the repository root)\n", err)
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a median", "b median", "b/a", "a iqr/m", "b iqr/m", "bound", "verdict")
	for _, spec := range workloadSpecs {
		a, b := sets[0].Workloads[spec.name], sets[1].Workloads[spec.name]
		if a == nil || b == nil || len(a.Runs) == 0 || len(b.Runs) == 0 {
			fmt.Fprintf(stdout, "%-14s missing from one run set\n", spec.name)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			var av, bv []float64
			for _, r := range a.Runs {
				av = append(av, r.Metrics[d.name].Value)
			}
			for _, r := range b.Runs {
				bv = append(bv, r.Metrics[d.name].Value)
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			aSpread, bSpread := ratio(aq3-aq1, am), ratio(bq3-bq1, bm)
			worse := ratio(bm-am, am)
			if !lower[d.name] {
				worse = ratio(am-bm, am)
			}
			verdict := "ok"
			switch {
			case d.name != "setup_s" && max(aSpread, bSpread) > bound[d.name]:
				verdict = "unresolved"
			case worse > bound[d.name]:
				verdict = "REGRESSED"
				status = 1
			}
			fmt.Fprintf(stdout, "%-14s %-18s %12.5g %12.5g %8.3f %8.3f %8.3f %6.2f  %s\n",
				spec.name, d.name, am, bm, ratio(bm, am), aSpread, bSpread, bound[d.name], verdict)
		}
		if am, bm := medianHostFactor(a.Runs), medianHostFactor(b.Runs); am > 0 && bm > 0 {
			fmt.Fprintf(stdout, "%-14s host factor (reference task time / nominal, already divided out of the times above): a %.3f, b %.3f\n",
				spec.name, am, bm)
		}
		if a.Traced != nil && b.Traced != nil {
			var differ []string
			for _, n := range exactCounts {
				if a.Traced.Metrics[n].Value != b.Traced.Metrics[n].Value {
					differ = append(differ, n)
				}
			}
			if len(differ) == 0 {
				fmt.Fprintf(stdout, "%-14s traced counts identical (%d counters)\n", spec.name, len(exactCounts))
			} else {
				fmt.Fprintf(stdout, "%-14s traced counts differ: %s\n", spec.name, strings.Join(differ, ", "))
			}
		}
	}
	return status
}

// medianHostFactor is the median over the runs' sub-runs of the host factor of
// their search phases.
func medianHostFactor(runs []*report) float64 {
	var v []float64
	for _, r := range runs {
		subs, _ := r.Info["sub_runs"].([]any)
		for _, sub := range subs {
			if m, ok := sub.(map[string]any); ok {
				if f, ok := m["loadgen.host_factor"].(float64); ok {
					v = append(v, f)
				}
			}
		}
	}
	return median(v)
}

// exactCounts are the traced run's counts that must repeat exactly for a
// seed: they come from fixed single-threaded work and involve no clock.  The
// page-read counts are not among them: Chunk-TermScore prunes its remain list
// by walking a Go map, so the order of its score-table probes, and with a
// pool smaller than the working set the LRU's victims, vary in the fourth
// digit.
var exactCounts = []string{
	"server.resp_bytes_per_search", "server.router_backend_calls_per_query",
	"index.postings_scanned_per_query", "index.score_lookups_per_query", "index.early_stop_ratio",
	"index.short_list_entries_end", "index.short_postings_written_per_update",
	"postings.bytes_per_posting", "postings.compression_ratio", "btree.patches_per_update", "blob.pages_per_list",
	"buffer.flushes_per_batch", "buffer.pool_pages", "buffer.working_set_pages",
	"pagefile.writes_per_batch", "pagefile.wal_bytes_per_update", "pagefile.fsyncs_per_batch", "pagefile.write_amp",
	"epoch.advances_per_batch",
}
