package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func smokeConfig(t *testing.T, workload string, trace bool) *config {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = workload, 7, 3, trace
	cfg.dataDir, cfg.outDir = filepath.Join(dir, "data"), filepath.Join(dir, "out")
	cfg.scale, cfg.subRuns, cfg.warmup, cfg.traceBatches = 0.1, 1, 100*time.Millisecond, 12
	return cfg
}

// TestSmoke runs all four workloads untraced, and the traced run on both
// stack shapes (single server with a pool below the working set, router), on
// a tenth-scale collection and checks the contract: the metric names and
// units are the ones BENCHMARK.json declares, every value is finite, nothing
// failed, every span lies inside its parent, and a second traced run with the
// same seed repeats every count exactly.  Self times are differences of
// timing medians; on a tenth-scale run on a loaded host their sign is noise,
// so it is not asserted.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < writeProcs {
		t.Skipf("the write phases need %d processors", writeProcs)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadSpecs))
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, w := range spec.Workloads {
		if specByName(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		runSmoke(t, smokeConfig(t, w.Name, false), want[false])
		if w.Name != "search-cold" && w.Name != "router-search" {
			continue
		}
		cfg := smokeConfig(t, w.Name, true)
		rep := runSmoke(t, cfg, want[true])
		checkSpans(t, filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
		if w.Name != "search-cold" {
			continue
		}
		// The workload whose counts depend most on state (a pool smaller
		// than the working set) must still repeat them for a seed.
		again := runSmoke(t, smokeConfig(t, w.Name, true), want[true])
		for _, name := range exactCounts {
			if a, b := rep.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %g, then %g with the same seed", w.Name, name, a, b)
			}
		}
	}
}

func runSmoke(t *testing.T, cfg *config, want map[string]string) *report {
	t.Helper()
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", cfg.workload, cfg.trace, err)
	}
	if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
		t.Errorf("%s (traced %v): attempted %d, failed %d, first failure: %v",
			cfg.workload, cfg.trace, rep.Attempted, rep.Failed, rep.Info["first_failure"])
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", cfg.workload, cfg.trace, len(rep.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := rep.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s (traced %v): metric %s missing", cfg.workload, cfg.trace, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", cfg.workload, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %g is not finite", cfg.workload, name, m.Value)
		case !cfg.trace && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %g must be positive", cfg.workload, name, m.Value)
		}
	}
	return rep
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			t.Errorf("span %d (%s) [%d,%d] is not inside its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
}
