package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"svrdb/internal/workload"
)

// oracle is the brute-force reference ranker: it knows, from one scan of
// the generated corpus, which documents contain each query term and how
// often, holds the latest acknowledged score of every document, and ranks a
// query by matching, scoring and sorting — no chunks, no short lists, no
// early stop, nothing shared with the code under test.  Responses are
// compared by their top-k score sequence, so documents tied on score may
// legally swap places.
type oracle struct {
	ds *dataset
	// scores[doc] is the latest acknowledged SVR score (doc IDs are 1-based).
	scores []float64
	// tf[term][doc] is the term's frequency in the document (0: absent) and
	// df[term] the number of documents containing it, for every term some
	// query of the mix uses.
	tf     map[string][]int32
	df     map[string]int
	docLen int
	// expected[qi] is the exact top-k of ds.queries[qi] under scores, valid
	// until the next apply.
	expected [][]rankHit
}

type rankHit struct {
	doc   int32
	score float64
}

// hit is the part of a search response the checks read.
type hit struct {
	PK    int64           `json:"pk"`
	Score float64         `json:"score"`
	Row   json.RawMessage `json:"row"`
}

type searchResponse struct {
	Hits            []hit `json:"hits"`
	PostingsScanned int   `json:"postings_scanned"`
	Stopped         bool  `json:"stopped"`
	Partial         bool  `json:"partial"`
}

func newOracle(ds *dataset) *oracle {
	n := ds.params.NumDocs + 1
	o := &oracle{ds: ds, scores: make([]float64, n), tf: map[string][]int32{}, df: map[string]int{}}
	for _, q := range ds.queries {
		for _, t := range q.terms {
			if o.tf[t] == nil {
				o.tf[t] = make([]int32, n)
			}
		}
	}
	// The callback never fails, so neither does ForEach.
	_ = ds.corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		o.scores[doc] = ds.corpus.Score(doc)
		o.docLen = len(tokens)
		for _, t := range tokens {
			if m := o.tf[t]; m != nil {
				if m[doc] == 0 {
					o.df[t]++
				}
				m[doc]++
			}
		}
		return nil
	})
	o.apply(ds.updates[:ds.preApply])
	return o
}

// apply records acknowledged score updates and drops the cached rankings.
func (o *oracle) apply(updates []workload.ScoreUpdate) {
	for _, u := range updates {
		o.scores[u.Doc] = u.NewScore
	}
	o.expected = nil
}

// scoreOf is the ranking score of a matching document: the SVR score, plus
// for with_term_scores queries the TF-IDF of each query term it contains
// (normalized tf as float32, idf = ln(1 + N/df), summed in term order — the
// definition in internal/text, recomputed here from the corpus).
func (o *oracle) scoreOf(q *query, doc int32) float64 {
	s := o.scores[doc]
	if !q.termScores {
		return s
	}
	for _, t := range q.terms {
		n := o.tf[t][doc]
		if n == 0 {
			continue
		}
		w := float32(float64(n) / float64(o.docLen))
		idf := math.Log(1 + float64(o.ds.params.NumDocs)/float64(o.df[t]))
		s += float64(w) * idf
	}
	return s
}

func (o *oracle) matches(q *query, doc int32) bool {
	for _, t := range q.terms {
		has := o.tf[t][doc] > 0
		if has && q.disjunct {
			return true
		}
		if !has && !q.disjunct {
			return false
		}
	}
	return !q.disjunct
}

// better orders hits the way every ranker in the repository does: score
// descending, then document ascending.
func better(a, b rankHit) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.doc < b.doc
}

// rank scans every document for a match, scores the matches and keeps the
// best k in order.
func (o *oracle) rank(q *query) []rankHit {
	top := make([]rankHit, 0, topK+1)
	for doc := int32(1); int(doc) < len(o.scores); doc++ {
		if !o.matches(q, doc) {
			continue
		}
		h := rankHit{doc, o.scoreOf(q, doc)}
		if len(top) == topK && !better(h, top[topK-1]) {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return better(h, top[i]) })
		top = append(top, rankHit{})
		copy(top[i+1:], top[i:])
		top[i] = h
		if len(top) > topK {
			top = top[:topK]
		}
	}
	return top
}

// rankAll caches the exact ranking of every distinct query under the
// current scores; the read phases compare each response against it.
func (o *oracle) rankAll() {
	o.expected = make([][]rankHit, len(o.ds.queries))
	for i := range o.ds.queries {
		o.expected[i] = o.rank(&o.ds.queries[i])
	}
}

func closeEnough(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkShape verifies what must hold for any response regardless of which
// score version it was ranked under: at most k hits, no duplicates, scores
// non-increasing, every hit a real match of the query, and for load_rows the
// joined row is the hit's own.
func (o *oracle) checkShape(q *query, resp *searchResponse) error {
	if len(resp.Hits) > topK {
		return fmt.Errorf("%d hits for k=%d", len(resp.Hits), topK)
	}
	if resp.Partial {
		return fmt.Errorf("partial result")
	}
	seen := map[int64]bool{}
	for i, h := range resp.Hits {
		if h.PK < 1 || int(h.PK) >= len(o.scores) || seen[h.PK] {
			return fmt.Errorf("hit %d: pk %d unknown or duplicated", i, h.PK)
		}
		seen[h.PK] = true
		if i > 0 && h.Score > resp.Hits[i-1].Score {
			return fmt.Errorf("hit %d: score %g above its predecessor %g", i, h.Score, resp.Hits[i-1].Score)
		}
		if !o.matches(q, int32(h.PK)) {
			return fmt.Errorf("hit %d: pk %d does not match the query", i, h.PK)
		}
		if q.loadRows {
			var row struct {
				ID *int64 `json:"id"`
			}
			if err := json.Unmarshal(h.Row, &row); err != nil || row.ID == nil || *row.ID != h.PK {
				return fmt.Errorf("hit %d: joined row is not pk %d", i, h.PK)
			}
		}
	}
	return nil
}

// check verifies a response ranked under the current acknowledged scores:
// the shape, each hit's score being that document's true score, and the
// score sequence equalling the reference top-k.
func (o *oracle) check(qi int, resp *searchResponse) error {
	q := &o.ds.queries[qi]
	if err := o.checkShape(q, resp); err != nil {
		return err
	}
	want := o.expected[qi]
	if len(resp.Hits) != len(want) {
		return fmt.Errorf("%d hits, reference has %d", len(resp.Hits), len(want))
	}
	for i, h := range resp.Hits {
		if own := o.scoreOf(q, int32(h.PK)); !closeEnough(h.Score, own) {
			return fmt.Errorf("hit %d: pk %d scored %g, its score is %g", i, h.PK, h.Score, own)
		}
		if !closeEnough(h.Score, want[i].score) {
			return fmt.Errorf("hit %d: score %g, reference rank %d has %g", i, h.Score, i, want[i].score)
		}
	}
	return nil
}
