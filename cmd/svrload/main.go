// Command svrload generates a synthetic SVR workload and reports its
// statistics: collection size, score distribution, update trace and query
// workload.  It is the data-preparation companion of svrbench and a quick
// way to sanity-check workload parameters before a long benchmark run.
//
// With -build it also performs the ingestion itself: the chosen index
// method is bulk-built over the generated corpus (the leaf-packing bulk
// loader) and the update trace is applied through the batched write
// pipeline (Method.ApplyUpdates), reporting the time of each stage.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"svrdb/internal/index"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/workload"
)

func main() {
	var (
		docs      = flag.Int("docs", 8000, "number of documents")
		terms     = flag.Int("terms", 200, "tokens per document")
		vocab     = flag.Int("vocab", 20000, "vocabulary size")
		updates   = flag.Int("updates", 10000, "score updates to generate")
		meanStep  = flag.Float64("step", 100, "mean score-update step")
		seed      = flag.Int64("seed", 1, "random seed")
		build     = flag.Bool("build", false, "bulk-build an index over the corpus and replay the trace through the batched write pipeline")
		method    = flag.String("method", "chunk", "index method for -build: id, score, score-threshold, chunk, id-termscore, chunk-termscore")
		batchSize = flag.Int("batch", 512, "ApplyUpdates batch size for -build")
		dataPath  = flag.String("data", "", "durable data file for -build; empty builds in memory.  Each stage commits, so the built structures survive the process")
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

	if *build {
		if err := buildAndIngest(corpus, trace, *method, *batchSize, *dataPath); err != nil {
			fmt.Fprintln(os.Stderr, "svrload:", err)
			os.Exit(1)
		}
	}
}

// buildAndIngest bulk-builds the chosen method over the corpus and replays
// the score-update trace through ApplyUpdates, printing stage timings.  With
// a data path the pagefile is disk-backed and each stage ends in an atomic
// commit (checkpoint), so the build is crash-durable.
func buildAndIngest(corpus *workload.Corpus, trace []workload.ScoreUpdate, method string, batchSize int, dataPath string) error {
	if batchSize < 1 {
		batchSize = 1
	}
	var file pagefile.File
	if dataPath == "" {
		file = pagefile.MustNewMem(pagefile.DefaultPageSize)
	} else {
		var err error
		if file, err = pagefile.Open(dataPath); err != nil {
			return err
		}
		defer file.Close()
	}
	pool := buffer.MustNew(file, 8192)
	cfg := index.Config{Pool: pool}
	m, err := index.New(method, cfg)
	if err != nil {
		return err
	}

	start := time.Now()
	if err := m.Build(corpus, corpus.ScoreFunc()); err != nil {
		return err
	}
	if err := pool.Checkpoint(nil); err != nil {
		return err
	}
	buildTime := time.Since(start)
	stats := m.Stats()
	fmt.Printf("bulk build (%s): %s, long lists %.2f MB\n", m.Name(), buildTime.Round(time.Millisecond), float64(stats.LongListBytes)/(1024*1024))
	if stats.LongListRawBytes > 0 {
		fmt.Printf("postings: %.2f MB stored vs %.2f MB fixed-width (%.2fx compression)\n",
			float64(stats.LongListBytes)/(1024*1024),
			float64(stats.LongListRawBytes)/(1024*1024),
			float64(stats.LongListRawBytes)/float64(stats.LongListBytes))
	}
	if dataPath != "" {
		fmt.Printf("committed to %s (%.2f MB on disk)\n", dataPath, float64(file.SizeBytes())/(1024*1024))
	}

	if len(trace) == 0 {
		return nil
	}
	batch := make([]index.Update, 0, batchSize)
	start = time.Now()
	for lo := 0; lo < len(trace); lo += batchSize {
		hi := lo + batchSize
		if hi > len(trace) {
			hi = len(trace)
		}
		batch = batch[:0]
		for _, u := range trace[lo:hi] {
			batch = append(batch, index.Update{Op: index.ScoreOp, Doc: u.Doc, Score: u.NewScore})
		}
		if err := m.ApplyUpdates(batch); err != nil {
			return err
		}
	}
	if err := pool.Checkpoint(nil); err != nil {
		return err
	}
	ingestTime := time.Since(start)
	fmt.Printf("batched updates: %d in %s (%.0f updates/s, batch size %d)\n",
		len(trace), ingestTime.Round(time.Millisecond), float64(len(trace))/ingestTime.Seconds(), batchSize)
	if dataPath != "" {
		fs := file.Stats()
		fmt.Printf("durability: %d commits, %.2f MB WAL written, %d fsyncs\n",
			fs.Commits, float64(fs.WALBytes)/(1024*1024), fs.Fsyncs)
	}
	return nil
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
