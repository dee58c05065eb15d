package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"svrdb/internal/core"
	"svrdb/internal/index"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/workload"
)

// The serving stack under test holds one table, Docs(id, body, score), and
// two text indexes over body whose SVR score is the score column itself, so
// the workload generator's score-update trace maps 1:1 onto structured
// updates (the same rig internal/bench's serve experiment uses).
const (
	tableName  = "Docs"
	chunkIndex = "docs_chunk" // Chunk method (§4.3.2)
	ctsIndex   = "docs_cts"   // Chunk-TermScore method (§4.3.3)
	specName   = "own-score"

	topK = 10
	// scheduleSlots is the length of the query schedule one pass cycles
	// through; class shares are exact fractions of it.
	scheduleSlots = 512
	// batchRows is the size of one /v1/batch request of the write phases.
	batchRows = 128
	// preApplyBatchRows is the ApplyBatch size of the set-up-time updates
	// that populate the short lists (Figure 7 measures after updates).
	preApplyBatchRows = 256
)

// queryClass is one request shape of the fig7mix traffic mix.
type queryClass int

const (
	conj2 queryClass = iota
	disj2
	conj3sel
	rowsClass
	tscore
	numClasses
)

var classNames = [numClasses]string{"conj2", "disj2", "conj3sel", "rows", "tscore"}

// classSlots is each class's share of the 512-slot schedule: 55 % two-term
// conjunctive, 15 % two-term disjunctive, 10 % three-term selective
// conjunctive, 10 % conj2 with load_rows, 10 % with_term_scores on docs_cts.
var classSlots = [numClasses]int{282, 77, 51, 51, 51}

// query is one distinct search of the mix with its pre-encoded request.
type query struct {
	class      queryClass
	terms      []string
	index      string
	path       string
	body       []byte
	disjunct   bool
	loadRows   bool
	termScores bool
}

// coreRequest is the query as a direct TextIndex.Search call, with the
// cluster-wide statistics a shard of several needs for TF-IDF (nil otherwise).
func (q *query) coreRequest(global *index.GlobalStats) core.SearchRequest {
	return core.SearchRequest{Query: strings.Join(q.terms, " "), K: topK, Disjunctive: q.disjunct,
		WithTermScores: q.termScores, LoadRows: q.loadRows, Global: global}
}

// dataset is everything generated from the seed: the program under test
// only ever sees these rows, queries and update batches.
type dataset struct {
	params   workload.Params
	corpus   *workload.Corpus
	queries  []query
	schedule []int // slot -> index into queries, seeded shuffle
	// probeSchedule restricts schedule to the conj2/disj2 slots: the
	// update-storm probe stands for plain searches arriving during a storm.
	probeSchedule []int
	// updates is the first chunk of the non-wrapping score-update trace; its
	// first preApply entries are applied during set-up, the rest and the
	// chunks after it feed the write phases through an updateCursor.
	updates  []workload.ScoreUpdate
	preApply int
	// userBytes is the storage-encoding size of every user row, the
	// denominator of space_amp.
	userBytes int64
	// rowBytes is the encoded size of one row (rows are equal-sized up to
	// the score digits), the unit of pagefile.write_amp.
	rowBytes float64
}

// collectionParams is the generated collection: at scale 1, 8 000 documents
// of 100 tokens over a 6 400-term vocabulary, otherwise the paper-shaped
// defaults (English-like Zipf(1.0) terms, Zipf(0.75) scores).  Documents are
// half the default length and the vocabulary is below the document count
// because the engine gives every term's long list, fancy list included, at
// least a page of its own: the vocabulary, not the corpus, sets how many
// bytes a set-up writes, and set-up I/O is what the driver's time budget and
// this sandbox's disk can least afford.  100-token rows also fit the 4 KiB
// disk default page.
func collectionParams(seed int64, scale float64) workload.Params {
	p := workload.DefaultParams()
	p.TermsPerDoc = 100
	p.VocabSize = p.NumDocs * 4 / 5
	p = p.Scaled(scale)
	p.Seed = seed
	return p
}

func newDataset(seed int64, scale float64) (*dataset, error) {
	p := collectionParams(seed, scale)
	ds := &dataset{params: p, corpus: workload.Generate(p)}

	// The generator's windows are fractions of the vocabulary sized for the
	// paper's 200 000 terms.  At this vocabulary its unselective window is a
	// handful of terms that nearly every document contains, so the classes
	// sit one window further out: two terms from the medium window match
	// 10-90 % of the documents (the paper's unselective regime, where top-k
	// stops early), three from the selective window match a handful (scans
	// run to the end of the lists, through the seek path).
	type classGen struct {
		sel   workload.QueryClass
		terms int
	}
	gens := [numClasses]classGen{
		conj2:     {workload.MediumSelective, 2},
		disj2:     {workload.MediumSelective, 2},
		conj3sel:  {workload.Selective, 3},
		rowsClass: {workload.MediumSelective, 2},
		tscore:    {workload.MediumSelective, 2},
	}
	perClass := make([][]int, numClasses)
	for c := queryClass(0); c < numClasses; c++ {
		// Ask for more candidates than slots and keep the distinct ones: at a
		// small scale the class's term window cannot yield as many distinct
		// queries as the class has slots, and the slots then cycle.
		cands := workload.GenerateQueries(ds.corpus, workload.QueryParams{
			Class: gens[c].sel, TermsPerQuery: gens[c].terms,
			NumQueries: 4 * classSlots[c], Seed: seed*31 + int64(c) + 3,
		})
		seen := map[string]bool{}
		for _, terms := range cands {
			if len(terms) != gens[c].terms {
				continue
			}
			key := append([]string(nil), terms...)
			sort.Strings(key)
			k := strings.Join(key, " ")
			if seen[k] || len(perClass[c]) == classSlots[c] {
				continue
			}
			seen[k] = true
			q := query{class: c, terms: terms, index: chunkIndex,
				disjunct: c == disj2, loadRows: c == rowsClass, termScores: c == tscore}
			if c == tscore {
				q.index = ctsIndex
			}
			q.path = "/v1/indexes/" + q.index + "/search"
			body, err := json.Marshal(server.SearchRequest{
				Terms: terms, K: topK, Disjunctive: q.disjunct,
				WithTermScores: q.termScores, LoadRows: q.loadRows,
			})
			if err != nil {
				return nil, err
			}
			q.body = body
			perClass[c] = append(perClass[c], len(ds.queries))
			ds.queries = append(ds.queries, q)
		}
		if len(perClass[c]) == 0 {
			return nil, fmt.Errorf("dataset: no %s queries at scale %g", classNames[c], scale)
		}
	}
	for c := queryClass(0); c < numClasses; c++ {
		for j := 0; j < classSlots[c]; j++ {
			ds.schedule = append(ds.schedule, perClass[c][j%len(perClass[c])])
		}
	}
	rng := rand.New(rand.NewSource(seed*131 + 7))
	rng.Shuffle(len(ds.schedule), func(i, j int) { ds.schedule[i], ds.schedule[j] = ds.schedule[j], ds.schedule[i] })
	for _, qi := range ds.schedule {
		if c := ds.queries[qi].class; c == conj2 || c == disj2 {
			ds.probeSchedule = append(ds.probeSchedule, qi)
		}
	}

	// Paper-default update workload (mean step 100, 1 % focus set taking
	// 20 % of the updates); 1.25 updates per document before measuring, the
	// ratio the issue's 20 000 updates over 16 000 documents fixes.
	ds.preApply = p.NumDocs * 5 / 4
	ds.updates = ds.updateChunk(0)

	err := ds.corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		ds.userBytes += int64(core.EncodedRowSize(ds.row(doc, tokens)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.rowBytes = float64(ds.userBytes) / float64(p.NumDocs)
	return ds, nil
}

// updateChunkRows is how much of the update trace is generated at a time.
// The trace has no fixed length: however fast a later change makes the write
// path, the writer cannot run out of it.
const updateChunkRows = 1 << 16

// updateChunk generates the i-th chunk of the update trace.  Within a chunk
// consecutive updates of a document compose; a new chunk starts again from the
// generated scores, which to the engine is one more score change per document.
func (ds *dataset) updateChunk(i int) []workload.ScoreUpdate {
	up := workload.DefaultUpdateParams()
	up.NumUpdates = max(updateChunkRows, ds.preApply+batchRows)
	up.Seed = ds.params.Seed*17 + 2 + int64(i)*1_000_003
	return workload.GenerateUpdates(ds.corpus, up)
}

func (ds *dataset) row(doc workload.DocID, tokens []string) relation.Row {
	return relation.Row{
		relation.Int(int64(doc)),
		relation.Str(strings.Join(tokens, " ")),
		relation.Float(ds.corpus.Score(doc)),
	}
}

// batchBody encodes one /v1/batch request of "update Docs set score" ops.
func batchBody(updates []workload.ScoreUpdate) ([]byte, error) {
	ops := make([]server.BatchOp, len(updates))
	for i, u := range updates {
		pk := int64(u.Doc)
		score, err := json.Marshal(u.NewScore)
		if err != nil {
			return nil, err
		}
		ops[i] = server.BatchOp{Op: "update", Table: tableName, PK: &pk,
			Set: map[string]json.RawMessage{"score": score}}
	}
	return json.Marshal(server.BatchRequest{Ops: ops})
}
