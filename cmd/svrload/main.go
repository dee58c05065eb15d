// Command svrload generates a synthetic SVR workload and reports its
// statistics: collection size, score distribution, update trace and query
// workload.  It is the data-preparation companion of svrbench and a quick
// way to sanity-check workload parameters before a long benchmark run.
// It builds no index: build time is BenchmarkTable1_BuildLongLists in
// internal/bench, and compression and loop-vs-batch ingestion are svrbench's
// compression and update experiments.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"svrdb/internal/workload"
)

func main() {
	var (
		docs     = flag.Int("docs", 8000, "number of documents")
		terms    = flag.Int("terms", 200, "tokens per document")
		vocab    = flag.Int("vocab", 20000, "vocabulary size")
		updates  = flag.Int("updates", 10000, "score updates to generate")
		meanStep = flag.Float64("step", 100, "mean score-update step")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	params := workload.Params{
		NumDocs:     *docs,
		TermsPerDoc: *terms,
		VocabSize:   *vocab,
		TermZipf:    0.1,
		ScoreMax:    100000,
		ScoreZipf:   0.75,
		Seed:        *seed,
	}
	fmt.Printf("generating corpus: %d docs x %d tokens, vocabulary %d\n", params.NumDocs, params.TermsPerDoc, params.VocabSize)
	corpus := workload.Generate(params)

	scores := make([]float64, 0, corpus.NumDocs())
	totalTokens := 0
	if err := corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		scores = append(scores, corpus.Score(doc))
		totalTokens += len(tokens)
		return nil
	}); err != nil {
		fmt.Fprintln(os.Stderr, "svrload:", err)
		os.Exit(1)
	}
	sort.Float64s(scores)
	fmt.Printf("distinct terms observed: %d\n", corpus.DistinctTermCount())
	fmt.Printf("total tokens: %d\n", totalTokens)
	fmt.Printf("score percentiles: p1=%.1f p50=%.1f p99=%.1f max=%.1f\n",
		percentile(scores, 0.01), percentile(scores, 0.50), percentile(scores, 0.99), scores[len(scores)-1])

	up := workload.DefaultUpdateParams()
	up.NumUpdates = *updates
	up.MeanStep = *meanStep
	up.Seed = *seed + 1
	trace := workload.GenerateUpdates(corpus, up)
	var increases, decreases int
	var maxJump float64
	for i, u := range trace {
		prev := corpus.Score(u.Doc)
		if i > 0 {
			// Not exact per-doc history, but enough for a summary.
			prev = trace[i-1].NewScore
		}
		if u.NewScore >= prev {
			increases++
		} else {
			decreases++
		}
		if math.Abs(u.NewScore-prev) > maxJump {
			maxJump = math.Abs(u.NewScore - prev)
		}
	}
	fmt.Printf("update trace: %d updates, %d increases / %d decreases (approx), largest jump %.1f\n",
		len(trace), increases, decreases, maxJump)

	for _, class := range []workload.QueryClass{workload.Unselective, workload.MediumSelective, workload.Selective} {
		qp := workload.QueryParams{Class: class, TermsPerQuery: 2, NumQueries: 5, Seed: *seed + 2}
		qs := workload.GenerateQueries(corpus, qp)
		fmt.Printf("%s queries: %v\n", class, qs)
	}
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
