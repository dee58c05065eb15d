// Command svrbench regenerates the paper's experiments (every table and
// figure of §5) against this implementation.
//
// Usage:
//
//	svrbench -list
//	svrbench -experiment table2 -scale 0.5 -updates 10000 -queries 50
//
// Each experiment prints a table whose rows correspond to the paper's rows
// or series; the "note:" lines state the qualitative shape the paper reports
// so runs can be compared at a glance.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"svrdb/internal/bench"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		experiment = flag.String("experiment", "all", "experiment ID to run (see -list), or 'all'")
		scale      = flag.Float64("scale", 0, "collection scale factor (default 0.25)")
		updates    = flag.Int("updates", 0, "number of score updates (default 4000)")
		queries    = flag.Int("queries", 0, "number of queries per data point (default 20)")
		k          = flag.Int("k", 0, "number of results per query (default 10)")
		meanStep   = flag.Float64("step", 0, "mean score-update step (default 100)")
		warmCache  = flag.Bool("warm", false, "keep the buffer pool warm between queries (default: cold cache, as in the paper)")
		poolPages  = flag.Int("pool", 0, "buffer pool capacity in pages (default 4096)")
		seed       = flag.Int64("seed", 0, "random seed (default 1)")
	)
	flag.Parse()

	if *list {
		fmt.Println("Available experiments:")
		for _, e := range bench.Registry() {
			fmt.Printf("  %-18s %-24s %s\n", e.ID, "("+e.Paper+")", e.Description)
		}
		return
	}

	opts := bench.DefaultOptions()
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *updates > 0 {
		opts.NumUpdates = *updates
	}
	if *queries > 0 {
		opts.NumQueries = *queries
	}
	if *k > 0 {
		opts.K = *k
	}
	if *meanStep > 0 {
		opts.MeanStep = *meanStep
	}
	if *poolPages > 0 {
		opts.PoolPages = *poolPages
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.ColdCache = !*warmCache

	var toRun []bench.Experiment
	if *experiment == "all" {
		toRun = bench.Registry()
	} else {
		e, ok := bench.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "svrbench: unknown experiment %q (use -list)\n", *experiment)
			os.Exit(2)
		}
		toRun = []bench.Experiment{e}
	}

	for _, e := range toRun {
		start := time.Now()
		table, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svrbench: experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if _, err := table.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "svrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
