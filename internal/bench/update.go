package bench

import (
	"fmt"
	"time"

	"svrdb/internal/index"
	"svrdb/internal/workload"
)

// updateFigureBatchSize is how many trace entries each ApplyUpdates call
// carries in the update-throughput experiments.
const updateFigureBatchSize = 512

// toBatch converts a slice of the score-update trace to a write batch.
func toBatch(updates []workload.ScoreUpdate, buf []index.Update) []index.Update {
	buf = buf[:0]
	for _, u := range updates {
		buf = append(buf, index.Update{Op: index.ScoreOp, Doc: u.Doc, Score: u.NewScore})
	}
	return buf
}

// applyBatched replays a trace through Method.ApplyUpdates in batches of
// size updates and returns the average time per update.
func applyBatched(r *rig, updates []workload.ScoreUpdate, maxMeasured, size int) (time.Duration, int, error) {
	n := len(updates)
	if maxMeasured > 0 && n > maxMeasured {
		n = maxMeasured
	}
	if n == 0 {
		return 0, 0, nil
	}
	buf := make([]index.Update, 0, size)
	start := time.Now()
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		if err := r.method.ApplyUpdates(toBatch(updates[lo:hi], buf)); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start) / time.Duration(n), n, nil
}

// RunUpdateFigure measures update throughput per method on the default
// update workload: the one-at-a-time loop of the paper's experiments (one-op
// batches) against ApplyUpdates batches of updateFigureBatchSize, first as a
// pure update stream, then mixed with queries (a query burst after every
// batch).
// The paper reports per-update cost (Figure 7, Tables 2-3); this experiment
// adds the loop-vs-batch comparison those numbers left open.
func RunUpdateFigure(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	methods := []string{"ID", "Score", "Score-Threshold", "Chunk", "Chunk-TermScore"}

	up := workload.DefaultUpdateParams()
	up.NumUpdates = opts.NumUpdates
	up.MeanStep = opts.MeanStep
	up.Seed = opts.Seed + 47
	updates := workload.GenerateUpdates(corpus, up)

	t := &Table{
		Name:    "Update Throughput — Batched ApplyUpdates vs One-at-a-Time (times in µs/op)",
		Caption: fmt.Sprintf("%d score updates (default trace, mean step %.0f), batch size %d; mixed rows interleave %d queries (k=%d)", len(updates), up.MeanStep, updateFigureBatchSize, opts.NumQueries, opts.K),
		Header:  []string{"Workload", "Method", "Loop (µs/op)", "Loop patched", "Batched (µs/op)", "Speedup", "Updates/s (batched)", "Query (ms)"},
		Notes: []string{
			"the in-place patch fast path (PR 3) made the loop itself ~11-16x faster, so the loop-vs-batch gap is far narrower than PR 2's >=5x era; batched should still win (shared descents, grouped leaf work) — the Score method is capped because each of its updates rewrites every posting of the document",
			"'Loop patched' is the number of table writes the one-at-a-time loop absorbed via the B+-tree's in-place leaf patch fast path, as a percentage of updates applied (one update can patch several tables, so >100% is possible); a collapse towards 0% means the fast path regressed",
			"mixed rows run the same trace with a query burst after every batch; query times should match the pure-query experiments",
		},
	}

	fmtUs := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e3) }

	// Pure update throughput.
	for _, m := range methods {
		cap := 0
		if m == "Score" {
			cap = 512
		}
		loopRig, err := newRig(m, corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		loopAvg, n, err := applyUpdates(loopRig, updates, cap)
		if err != nil {
			return nil, err
		}
		patched := "-"
		if n > 0 {
			patched = fmt.Sprintf("%.0f%%", 100*float64(loopRig.method.Stats().TablePatches)/float64(n))
		}
		batchRig, err := newRig(m, corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		batchAvg, _, err := applyBatched(batchRig, updates, cap, updateFigureBatchSize)
		if err != nil {
			return nil, err
		}
		speedup := "-"
		rate := "-"
		if batchAvg > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(loopAvg)/float64(batchAvg))
			rate = fmt.Sprintf("%.0f", float64(time.Second)/float64(batchAvg))
		}
		t.Rows = append(t.Rows, []string{"pure", m, fmtUs(loopAvg), patched, fmtUs(batchAvg), speedup, rate, "-"})
	}

	// Mixed update/query workload for the paper's recommended methods.
	for _, m := range []string{"Score-Threshold", "Chunk"} {
		r, err := newRig(m, corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		var updTotal time.Duration
		qTick := 0
		var qs queryStats
		for lo := 0; lo < len(updates); lo += updateFigureBatchSize {
			hi := lo + updateFigureBatchSize
			if hi > len(updates) {
				hi = len(updates)
			}
			start := time.Now()
			if err := r.method.ApplyUpdates(toBatch(updates[lo:hi], nil)); err != nil {
				return nil, err
			}
			updTotal += time.Since(start)
			// One query per batch, rotating through the workload.
			q, err := runQueries(r, queries[qTick%len(queries):qTick%len(queries)+1], opts, opts.K, false, false)
			if err != nil {
				return nil, err
			}
			qs.avgTime += q.avgTime
			qTick++
		}
		updAvg := updTotal / time.Duration(len(updates))
		qAvg := time.Duration(0)
		if qTick > 0 {
			qAvg = qs.avgTime / time.Duration(qTick)
		}
		rate := "-"
		if updAvg > 0 {
			rate = fmt.Sprintf("%.0f", float64(time.Second)/float64(updAvg))
		}
		t.Rows = append(t.Rows, []string{"mixed", m, "-", "-", fmtUs(updAvg), "-", rate, fmtDur(qAvg)})
	}
	return t, nil
}
