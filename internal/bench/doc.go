// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§5) on the Go implementation:
// it builds the requested index structures over the synthetic (or
// archive-style) workload, replays score-update traces, runs the query
// workloads on a cold cache, and prints rows in the same shape as the paper
// reports them.
//
// Absolute numbers differ from the paper (different hardware, scaled-down
// data), but each experiment preserves the comparison the paper makes: which
// method wins, by roughly what factor, and where the crossovers are.
//
// Beyond the paper's tables, the harness carries two engineering
// experiments for this implementation: loop-vs-batch update throughput
// ("update") and the posting-block compression ratio ("compression"), which
// also enforces the ≥ 2x compression-ratio gate in CI.  bench_test.go runs
// one testing.B benchmark per table and figure on the same corpus and rigs.
// Serving — read scaling, HTTP, router, durable open time, update storms —
// is measured by the repo benchmark under benchmark/.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package bench
