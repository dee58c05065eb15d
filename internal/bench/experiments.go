package bench

import (
	"fmt"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/index"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/workload"
)

// RunTable1 reproduces Table 1: the size of the long inverted lists for every
// method on the same collection.
func RunTable1(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	methods := []string{"ID", "Score", "Score-Threshold", "Chunk", "ID-TermScore", "Chunk-TermScore"}
	t := &Table{
		Name:    "Table 1 — Size of Long Inverted Lists",
		Caption: fmt.Sprintf("collection: %d docs x %d tokens, %d distinct terms", corpus.NumDocs(), corpus.Params().TermsPerDoc, corpus.DistinctTermCount()),
		Header:  []string{"Method", "Long list size (MB)", "Relative to ID"},
		Notes: []string{
			"expected shape (paper): Score >> Score-Threshold > ID ~= Chunk; TermScore variants ~3x their base",
		},
	}
	var idSize uint64
	sizes := map[string]uint64{}
	for _, m := range methods {
		r, err := newRig(m, corpus, opts, index.Config{})
		if err != nil {
			return nil, err
		}
		sizes[m] = r.method.Stats().LongListBytes
		if m == "ID" {
			idSize = sizes[m]
		}
	}
	for _, m := range methods {
		rel := "-"
		if idSize > 0 {
			rel = fmt.Sprintf("%.2fx", float64(sizes[m])/float64(idSize))
		}
		t.Rows = append(t.Rows, []string{m, fmtMB(sizes[m]), rel})
	}
	return t, nil
}

// RunTable2 reproduces Table 2: the chunk-ratio sweep for several mean update
// step sizes.
func RunTable2(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	ratios := []float64{164.84, 82.92, 41.96, 21.48, 11.24, 6.12, 3.56, 2.28, 1.56}
	steps := []float64{100, 1000, 10000}

	t := &Table{
		Name:    "Table 2 — Effect of Chunk Ratio (times in ms)",
		Caption: fmt.Sprintf("%d score updates, %d queries, k=%d", opts.NumUpdates, opts.NumQueries, opts.K),
		Header:  []string{"Ratio", "Upd(step 100)", "Qry(step 100)", "Upd(step 1000)", "Qry(step 1000)", "Upd(step 10000)", "Qry(step 10000)"},
		Notes: []string{
			"expected shape (paper): update cost rises as the ratio shrinks; the optimal ratio grows with the update step",
			"departs from the paper: Chunk stops at its key ceilings (the highest score a document filed under a chunk can have), never later than the paper's next-chunk bound, so query time stays low up to larger ratios than the paper's (at step 100, default scale, 2000 updates: up to 41.96 against 6.12 under the paper's bound)",
		},
	}
	for _, ratio := range ratios {
		row := []string{fmt.Sprintf("%.2f", ratio)}
		for _, step := range steps {
			upd, qry, err := chunkRatioPoint(corpus, opts, ratio, step, queries)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(upd), fmtDur(qry))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func chunkRatioPoint(corpus *workload.Corpus, opts Options, ratio, step float64, queries [][]string) (time.Duration, time.Duration, error) {
	r, err := newRig("Chunk", corpus, opts, index.Config{ChunkRatio: ratio, MinChunkSize: minChunkSize(opts)})
	if err != nil {
		return 0, 0, err
	}
	updates := updateTrace(corpus, opts.NumUpdates, step, opts.Seed+int64(step))
	upd, _, err := applyUpdates(r, updates, 0)
	if err != nil {
		return 0, 0, err
	}
	qs, err := runQueries(r, queries, opts, opts.K, false, false)
	if err != nil {
		return 0, 0, err
	}
	return upd, qs.avgTime, nil
}

// minChunkSize adapts the paper's minimum chunk size of 100 documents to the
// scaled collection.
func minChunkSize(opts Options) int {
	n := int(100 * opts.Scale)
	if n < 4 {
		n = 4
	}
	return n
}

func queryParams(opts Options) workload.QueryParams {
	qp := workload.DefaultQueryParams()
	qp.NumQueries = opts.NumQueries
	qp.Seed = opts.Seed + 77
	return qp
}

// RunFigure7 reproduces Figure 7: per-operation update and query times for
// the four SVR-only methods as the number of score updates grows.
func RunFigure7(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	methods := []string{"ID", "Score", "Score-Threshold", "Chunk"}
	points := []int{0, opts.NumUpdates / 4, opts.NumUpdates / 2, opts.NumUpdates}

	t := &Table{
		Name:    "Figure 7 — Varying the Number of Updates (times in ms)",
		Caption: fmt.Sprintf("per-op averages; %d queries per point, k=%d", opts.NumQueries, opts.K),
		Header:  []string{"#Updates", "Method", "Update (ms/op)", "Query (ms)", "Postings/query", "Pages/query"},
		Notes: []string{
			"expected shape (paper): Score update cost is orders of magnitude above all others; ID query cost is flat and highest of the chunked methods; Chunk and Score-Threshold track each other with Chunk slightly ahead",
			"departs from the paper: Chunk stops at its key ceilings (the highest score a document filed under a chunk can have), never later than the paper's next-chunk bound, so it scans far fewer postings than Score-Threshold instead of tracking it (default scale, 2000 updates: 32 against 525 per query; 354 under the paper's bound)",
			"departs from the paper: a fresh Score-Threshold index reads the Score table for every candidate, because each document's list score sits in its Score row, not in a ListScore table whose missing row would spare a never-updated document the lookup; its Pages/query is flat in the updates instead of rising from a low start (-scale 0.25: 12.0 at 0 and at 2000 updates, against 4.0 and 13.0 with the separate table)",
			"the Score method is capped at a small number of measured updates because each one rewrites every posting of the document",
			"Pages/query counts buffer-pool misses per query; with a warm pool it is ~0 and only the cold/disk-backed runs exercise it",
		},
	}
	for _, nUpd := range points {
		updates := updateTrace(corpus, nUpd, opts.MeanStep, opts.Seed+5)
		for _, m := range methods {
			r, err := newRig(m, corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
			if err != nil {
				return nil, err
			}
			cap := 0
			if m == "Score" {
				cap = 50
			}
			upd, applied, err := applyUpdates(r, updates, cap)
			if err != nil {
				return nil, err
			}
			qs, err := runQueries(r, queries, opts, opts.K, false, false)
			if err != nil {
				return nil, err
			}
			updCell := fmtDur(upd)
			if applied == 0 {
				updCell = "-"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nUpd), m, updCell, fmtDur(qs.avgTime), fmt.Sprintf("%.0f", qs.avgPostings), fmt.Sprintf("%.1f", qs.avgPages),
			})
		}
	}
	return t, nil
}

// RunFigure8 reproduces Figure 8: query time as k grows.
func RunFigure8(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	methods := []string{"ID", "Score-Threshold", "Chunk"}
	ks := []int{1, 10, 100, 1000}
	updates := updateTrace(corpus, opts.NumUpdates, opts.MeanStep, opts.Seed+9)

	t := &Table{
		Name:    "Figure 8 — Varying the Number of Desired Results (times in ms)",
		Caption: fmt.Sprintf("after %d score updates; %d queries per point", opts.NumUpdates, opts.NumQueries),
		Header:  []string{"k", "Method", "Query (ms)", "Postings/query"},
		Notes: []string{
			"expected shape (paper): ID is flat in k; Chunk and Score-Threshold grow with k and approach ID for large k; Chunk dominates Score-Threshold",
			"departs from the paper at small k: Chunk's key ceilings stop its scan before the paper's next-chunk bound would, so at k = 1 and 10 it scans about a tenth of what the paper's rule does; from k = 100 every method scans every list",
		},
	}
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
	for _, k := range ks {
		for _, m := range methods {
			qs, err := runQueries(rigs[m], queries, opts, k, false, false)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), m, fmtDur(qs.avgTime), fmt.Sprintf("%.0f", qs.avgPostings)})
		}
	}
	return t, nil
}

// RunStepSweep reproduces §5.3.4: for each mean update step, the Chunk
// method tuned with a suitable ratio is compared against the ID method.
func RunStepSweep(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	steps := []float64{100, 1000, 10000}
	tunedRatio := map[float64]float64{100: 6.12, 1000: 21.48, 10000: 82.92}

	t := &Table{
		Name:    "§5.3.4 — Varying Mean Update Step Size (times in ms)",
		Caption: fmt.Sprintf("%d updates, %d queries, k=%d; Chunk uses the ratio tuned for each step", opts.NumUpdates, opts.NumQueries, opts.K),
		Header:  []string{"Mean step", "Method", "Update (ms/op)", "Query (ms)"},
		Notes: []string{
			"expected shape (paper): the tuned Chunk method matches or beats ID at every step size; ID query time is flat",
		},
	}
	for _, step := range steps {
		updates := updateTrace(corpus, opts.NumUpdates, step, opts.Seed+int64(step))
		for _, m := range []string{"Chunk", "ID"} {
			cfg := index.Config{MinChunkSize: minChunkSize(opts)}
			if m == "Chunk" {
				cfg.ChunkRatio = tunedRatio[step]
			}
			r, err := newRig(m, corpus, opts, cfg)
			if err != nil {
				return nil, err
			}
			upd, _, err := applyUpdates(r, updates, 0)
			if err != nil {
				return nil, err
			}
			qs, err := runQueries(r, queries, opts, opts.K, false, false)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f", step), m, fmtDur(upd), fmtDur(qs.avgTime)})
		}
	}
	return t, nil
}

// RunFigure9 reproduces Figure 9: combined SVR + term-score ranking,
// Chunk-TermScore versus the ID-TermScore baseline.
func RunFigure9(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	methods := []string{"ID-TermScore", "Chunk-TermScore"}
	updates := updateTrace(corpus, opts.NumUpdates, opts.MeanStep, opts.Seed+13)

	t := &Table{
		Name:    "Figure 9 — Combining Term Scores (times in ms)",
		Caption: fmt.Sprintf("%d updates, %d queries, k=%d, combined SVR+TF-IDF ranking", opts.NumUpdates, opts.NumQueries, opts.K),
		Header:  []string{"Method", "Update (ms/op)", "Query (ms)", "Postings/query"},
		Notes: []string{
			"expected shape (paper): Chunk-TermScore query time is well below ID-TermScore (early stopping) with comparable update cost",
		},
	}
	for _, m := range methods {
		r, err := newRig(m, corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		upd, _, err := applyUpdates(r, updates, 0)
		if err != nil {
			return nil, err
		}
		qs, err := runQueries(r, queries, opts, opts.K, false, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{m, fmtDur(upd), fmtDur(qs.avgTime), fmt.Sprintf("%.0f", qs.avgPostings)})
	}
	return t, nil
}

// RunFigure10 reproduces Figure 10: disjunctive versus conjunctive queries.
func RunFigure10(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	methods := []string{"ID", "Score-Threshold", "Chunk", "ID-TermScore", "Chunk-TermScore"}
	updates := updateTrace(corpus, opts.NumUpdates, opts.MeanStep, opts.Seed+17)

	t := &Table{
		Name:    "Figure 10 — Disjunctive Query Results (times in ms)",
		Caption: fmt.Sprintf("%d updates, %d queries, k=%d", opts.NumUpdates, opts.NumQueries, opts.K),
		Header:  []string{"Method", "Conjunctive (ms)", "Disjunctive (ms)", "Disj postings/query", "Disj pages/query"},
		Notes: []string{
			"expected shape (paper): the chunked/threshold methods are nearly unchanged; the ID family degrades because disjunction produces many more candidates",
			"Disj pages/query counts buffer-pool misses per disjunctive query; ~0 on a warm pool",
		},
	}
	for _, m := range methods {
		r, err := newRig(m, corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		if _, _, err := applyUpdates(r, updates, 0); err != nil {
			return nil, err
		}
		withTS := m == "ID-TermScore" || m == "Chunk-TermScore"
		conj, err := runQueries(r, queries, opts, opts.K, false, withTS)
		if err != nil {
			return nil, err
		}
		disj, err := runQueries(r, queries, opts, opts.K, true, withTS)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{m, fmtDur(conj.avgTime), fmtDur(disj.avgTime), fmt.Sprintf("%.0f", disj.avgPostings), fmt.Sprintf("%.1f", disj.avgPages)})
	}
	return t, nil
}

// RunTable3 reproduces Table 3 (Appendix A.3): the effect of incremental
// document insertions on query, score-update and insertion cost for the
// Chunk method.
func RunTable3(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	insertPoints := []int{100, 200, 400, 800, 1000}

	t := &Table{
		Name:    "Table 3 — Varying the Number of Insertions (times in ms)",
		Caption: "Chunk method; insertions are new documents added after the bulk build",
		Header:  []string{"Inserted docs", "Query (ms)", "Score update (ms/op)", "Insertion (ms/doc)"},
		Notes: []string{
			"expected shape (paper): query time stays robust; score-update and insertion cost grow as the short lists grow",
		},
	}
	params := corpus.Params()
	for _, nIns := range insertPoints {
		r, err := newRig("Chunk", corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		// Insert new documents drawn from the same distributions.  The
		// index reads a document's content only from its source, so the
		// source holds them too, numbered after the corpus.
		insCorpus := workload.Generate(workload.Params{
			NumDocs:     nIns,
			TermsPerDoc: params.TermsPerDoc,
			VocabSize:   params.VocabSize,
			TermZipf:    params.TermZipf,
			ScoreMax:    params.ScoreMax,
			ScoreZipf:   params.ScoreZipf,
			Seed:        opts.Seed + int64(nIns),
		})
		r.method.SetSource(appendedSource{corpus, insCorpus})
		start := time.Now()
		for i := 0; i < nIns; i++ {
			doc := workload.DocID(corpus.NumDocs() + i + 1)
			tokens, err := insCorpus.Tokens(workload.DocID(i + 1))
			if err != nil {
				return nil, err
			}
			ins := index.Update{Op: index.InsertOp, Doc: doc, Tokens: tokens, Score: insCorpus.Score(workload.DocID(i + 1))}
			if err := r.method.ApplyUpdates([]index.Update{ins}); err != nil {
				return nil, err
			}
		}
		insertAvg := time.Since(start) / time.Duration(nIns)

		updates := updateTrace(corpus, opts.NumUpdates/4, opts.MeanStep, opts.Seed+23)
		updAvg, _, err := applyUpdates(r, updates, 0)
		if err != nil {
			return nil, err
		}
		qs, err := runQueries(r, queries, opts, opts.K, false, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nIns), fmtDur(qs.avgTime), fmtDur(updAvg), fmtDur(insertAvg),
		})
	}
	return t, nil
}

// appendedSource is an index.DocSource over a built corpus followed by the
// documents inserted after the build, numbered from the corpus's end.
type appendedSource struct{ built, inserted *workload.Corpus }

func (s appendedSource) NumDocs() int { return s.built.NumDocs() + s.inserted.NumDocs() }

func (s appendedSource) ForEach(fn func(doc workload.DocID, tokens []string) error) error {
	if err := s.built.ForEach(fn); err != nil {
		return err
	}
	n := workload.DocID(s.built.NumDocs())
	return s.inserted.ForEach(func(doc workload.DocID, tokens []string) error { return fn(n+doc, tokens) })
}

func (s appendedSource) Tokens(doc workload.DocID) ([]string, error) {
	if n := workload.DocID(s.built.NumDocs()); doc > n {
		return s.inserted.Tokens(doc - n)
	}
	return s.built.Tokens(doc)
}

// RunThresholdSweep is the Score-Threshold analogue of Table 2 (the paper
// reports the same tradeoff exists but omits the numbers).
func RunThresholdSweep(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	ratios := []float64{100, 50, 20, 11.24, 5, 2, 1.2}

	t := &Table{
		Name:    "§5.3.1 — Effect of Threshold Ratio (times in ms)",
		Caption: fmt.Sprintf("Score-Threshold method, %d updates, %d queries, k=%d", opts.NumUpdates, opts.NumQueries, opts.K),
		Header:  []string{"Threshold ratio", "Update (ms/op)", "Query (ms)", "Short-list postings"},
		Notes: []string{
			"expected shape: small ratios push many documents into the short lists (costly updates); large ratios make queries scan more of the long lists",
		},
	}
	updates := updateTrace(corpus, opts.NumUpdates, opts.MeanStep, opts.Seed+31)
	for _, ratio := range ratios {
		r, err := newRig("Score-Threshold", corpus, opts, index.Config{ThresholdRatio: ratio})
		if err != nil {
			return nil, err
		}
		upd, _, err := applyUpdates(r, updates, 0)
		if err != nil {
			return nil, err
		}
		qs, err := runQueries(r, queries, opts, opts.K, false, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", ratio), fmtDur(upd), fmtDur(qs.avgTime),
			fmt.Sprintf("%d", r.method.Stats().ShortListEntries),
		})
	}
	return t, nil
}

// RunArchive reproduces the spirit of §5.3.7: the same comparison on an
// Internet-Archive-style relational data set driven through the full engine
// (score specification, materialized view, index maintenance).
func RunArchive(opts Options) (*Table, error) {
	opts = opts.normalized()
	nMovies := int(2000 * opts.Scale)
	if nMovies < 200 {
		nMovies = 200
	}

	t := &Table{
		Name:    "§5.3.7 — Archive-Style Data Set (times in ms)",
		Caption: fmt.Sprintf("%d movies with reviews and statistics; structured updates drive score changes through the materialized view", nMovies),
		Header:  []string{"Method", "Structured update (ms/op)", "Query (ms)", "Top-1 stable"},
		Notes: []string{
			"expected shape (paper): the same conclusions as the synthetic data — Chunk best or close to best on both sides",
		},
	}
	for _, kind := range []core.MethodKind{core.MethodID, core.MethodScoreThreshold, core.MethodChunk} {
		file := pagefile.MustNewMem(pagefile.DefaultPageSize)
		pool := buffer.MustNew(file, opts.PoolPages)
		registerPool(pool)
		db := relation.NewDB(pool)
		if _, err := workload.BuildArchiveDB(db, workload.ArchiveParams{
			NumMovies:        nMovies,
			ReviewsPerMovie:  5,
			WordsPerDesc:     40,
			Seed:             opts.Seed,
			PopularityZipf:   0.75,
			MaxVisitsPerItem: 100000,
		}); err != nil {
			return nil, err
		}
		engine := core.NewEngine(db, core.Options{})
		ti, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", core.IndexOptions{
			Method: kind,
			Spec:   workload.ArchiveSpec(),
		})
		if err != nil {
			return nil, err
		}

		// Structured updates: bump visit counts of random movies (flash
		// crowds), which flows through the view into index score updates.
		stats, err := db.Table("Statistics")
		if err != nil {
			return nil, err
		}
		nUpdates := opts.NumUpdates / 4
		if nUpdates > nMovies*4 {
			nUpdates = nMovies * 4
		}
		start := time.Now()
		for i := 0; i < nUpdates; i++ {
			mID := int64(i%nMovies + 1)
			row, err := stats.Get(mID)
			if err != nil {
				return nil, err
			}
			if err := stats.Update(mID, map[string]relation.Value{
				"nVisit": relation.Int(row[2].I + int64(100+i%500)),
			}); err != nil {
				return nil, err
			}
		}
		updAvg := time.Duration(0)
		if nUpdates > 0 {
			updAvg = time.Since(start) / time.Duration(nUpdates)
		}
		if err := ti.MaintenanceErr(); err != nil {
			return nil, err
		}

		queries := []string{"golden gate", "amateur film", "san francisco", "gold rush", "cable car"}
		var totalQ time.Duration
		stable := true
		for _, q := range queries {
			if opts.ColdCache {
				if err := pool.EvictAll(); err != nil {
					return nil, err
				}
			}
			qstart := time.Now()
			res, err := ti.Search(core.SearchRequest{Query: q, K: opts.K})
			if err != nil {
				return nil, err
			}
			totalQ += time.Since(qstart)
			if len(res.Hits) == 0 {
				stable = false
			}
		}
		t.Rows = append(t.Rows, []string{
			string(kind), fmtDur(updAvg), fmtDur(totalQ / time.Duration(len(queries))), fmt.Sprintf("%v", stable),
		})
	}
	return t, nil
}

// RunChunkPolicyAblation compares the paper's score-ratio chunk boundaries
// against equal-width boundaries (a design choice §4.3.2 discusses and
// rejects).
func RunChunkPolicyAblation(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	updates := updateTrace(corpus, opts.NumUpdates, opts.MeanStep, opts.Seed+41)

	t := &Table{
		Name:    "Ablation — Chunk-Boundary Policy (times in ms)",
		Caption: "score-ratio boundaries (paper's choice) vs small/large fixed ratios standing in for uniform chunking",
		Header:  []string{"Policy", "Chunks", "Update (ms/op)", "Query (ms)"},
		Notes: []string{
			"the paper found ratio-based boundaries derived from the score distribution to be the best compromise",
		},
	}
	policies := []struct {
		label string
		cfg   index.Config
	}{
		{"score-ratio (6.12)", index.Config{ChunkRatio: 6.12, MinChunkSize: minChunkSize(opts)}},
		{"many tiny chunks (1.56)", index.Config{ChunkRatio: 1.56, MinChunkSize: 1}},
		{"few huge chunks (164.8)", index.Config{ChunkRatio: 164.84, MinChunkSize: minChunkSize(opts)}},
	}
	for _, p := range policies {
		r, err := newRig("Chunk", corpus, opts, p.cfg)
		if err != nil {
			return nil, err
		}
		upd, _, err := applyUpdates(r, updates, 0)
		if err != nil {
			return nil, err
		}
		qs, err := runQueries(r, queries, opts, opts.K, false, false)
		if err != nil {
			return nil, err
		}
		chunks := len(r.method.State().ChunkLower)
		t.Rows = append(t.Rows, []string{p.label, fmt.Sprintf("%d", chunks), fmtDur(upd), fmtDur(qs.avgTime)})
	}
	return t, nil
}

// RunFancyListAblation varies the fancy-list length of Chunk-TermScore.
func RunFancyListAblation(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	lengths := []int{4, 16, 64, 256}

	t := &Table{
		Name:    "Ablation — Fancy-List Length (Chunk-TermScore, times in ms)",
		Caption: fmt.Sprintf("%d queries with combined SVR+TF-IDF ranking, k=%d", opts.NumQueries, opts.K),
		Header:  []string{"Fancy-list length", "Query (ms)", "Postings/query", "Long+fancy size (MB)"},
		Notes: []string{
			"longer fancy lists tighten the term-score bound (earlier stopping) at the cost of a larger read-only structure",
		},
	}
	for _, n := range lengths {
		r, err := newRig("Chunk-TermScore", corpus, opts, index.Config{FancyListSize: n, MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		qs, err := runQueries(r, queries, opts, opts.K, false, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmtDur(qs.avgTime), fmt.Sprintf("%.0f", qs.avgPostings),
			fmtMB(r.method.Stats().LongListBytes),
		})
	}
	return t, nil
}
