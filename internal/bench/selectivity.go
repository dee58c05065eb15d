package bench

import (
	"fmt"

	"svrdb/internal/index"
	"svrdb/internal/workload"
)

// RunSelectivity sweeps the three query-selectivity classes of §5.1
// (unselective / medium-selective / selective keyword pools).  The paper
// summarizes these runs in §5.3.7 ("we ran other experiments varying all the
// parameters ... the conclusion was essentially the same"); this experiment
// makes that summary reproducible: for every class, the Chunk method's query
// cost stays at or below the ID method's, and both fall as the keywords get
// rarer because the inverted lists get shorter.
func RunSelectivity(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	updates := updateTrace(corpus, opts.NumUpdates, opts.MeanStep, opts.Seed+61)

	t := &Table{
		Name:    "§5.3.7 — Query Selectivity Sweep (times in ms)",
		Caption: fmt.Sprintf("%d updates, %d queries per class, k=%d", opts.NumUpdates, opts.NumQueries, opts.K),
		Header:  []string{"Query class", "Method", "Query (ms)", "Postings/query", "Results/query"},
		Notes: []string{
			"expected shape (paper): the ranking of methods is unchanged across selectivity classes; all methods get faster as keywords get rarer",
		},
	}

	methods := []string{"ID", "Chunk"}
	rigs := map[string]*rig{}
	for _, m := range methods {
		r, err := newRig(m, corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		if _, _, err := applyUpdates(r, updates, 0); err != nil {
			return nil, err
		}
		rigs[m] = r
	}

	classes := []workload.QueryClass{workload.Unselective, workload.MediumSelective, workload.Selective}
	for _, class := range classes {
		queries := workload.GenerateQueries(corpus, workload.QueryParams{
			Class:         class,
			TermsPerQuery: 2,
			NumQueries:    opts.NumQueries,
			Seed:          opts.Seed + 67,
		})
		for _, m := range methods {
			qs, err := runQueries(rigs[m], queries, opts, opts.K, false, false)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				class.String(), m, fmtDur(qs.avgTime), fmt.Sprintf("%.0f", qs.avgPostings),
				fmt.Sprintf("%.1f", float64(qs.results)/float64(opts.NumQueries)),
			})
		}
	}
	return t, nil
}
