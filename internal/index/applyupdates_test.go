package index

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file holds the batch-write equivalence property test: for every
// method, applying a shuffled mixed update trace through ApplyUpdates (in
// arbitrary chunk sizes) must leave the index answering every query exactly
// as if the same trace had been applied one call at a time.

// traceVocab is a tiny vocabulary that guarantees dense posting lists, so
// the trace exercises collisions between updates of different documents on
// the same terms.
var traceVocab = []string{"golden", "gate", "news", "archive", "film", "bridge", "database", "classic"}

// genDoc produces a deterministic pseudo-document over traceVocab.
func genDoc(rng *rand.Rand) string {
	n := 3 + rng.Intn(6)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += traceVocab[rng.Intn(len(traceVocab))]
	}
	return out
}

// genTrace builds a shuffled mixed trace over the corpus: mostly score
// updates (with steps large enough to cross thresholds and chunks), plus
// document inserts, content updates and deletes.  The corpus is kept in
// sync with the trace (inserted documents are added, content updates
// replace tokens) the way a live base table would be, since the methods
// read document content back through their DocSource.
func genTrace(rng *rand.Rand, corpus *testCorpus, n int) []Update {
	ids := append([]DocID(nil), corpus.order...)
	nextID := DocID(1000)
	var trace []Update
	for len(trace) < n {
		switch r := rng.Float64(); {
		case r < 0.70: // score update
			doc := ids[rng.Intn(len(ids))]
			old := corpus.scores[doc]
			// Mix small drifts with big jumps that cross thresholds/chunks.
			var score float64
			if rng.Intn(2) == 0 {
				score = old * (0.8 + rng.Float64()*0.4)
			} else {
				score = old * rng.Float64() * 8
			}
			corpus.scores[doc] = score
			trace = append(trace, Update{Op: ScoreOp, Doc: doc, Score: score})
		case r < 0.82: // insert
			doc := nextID
			nextID++
			content := genDoc(rng)
			score := rng.Float64() * 5000
			corpus.add(doc, score, content)
			ids = append(ids, doc)
			trace = append(trace, Update{Op: InsertOp, Doc: doc, Tokens: splitWords(content), Score: score})
		case r < 0.94: // content update
			doc := ids[rng.Intn(len(ids))]
			newTokens := splitWords(genDoc(rng))
			trace = append(trace, Update{Op: ContentOp, Doc: doc, OldTokens: corpus.docs[doc], NewTokens: newTokens})
			corpus.docs[doc] = newTokens
		default: // delete (keep a handful of documents live)
			if len(ids) < 5 {
				continue
			}
			i := rng.Intn(len(ids))
			doc := ids[i]
			ids = append(ids[:i], ids[i+1:]...)
			trace = append(trace, Update{Op: DeleteOp, Doc: doc})
		}
	}
	return trace
}

func splitWords(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// equivalenceQueries probes the index from several angles; the results must
// match exactly between the sequential and the batched index.
func equivalenceQueries(withTermScores bool) []Query {
	qs := []Query{
		{Terms: []string{"golden", "gate"}, K: 3},
		{Terms: []string{"golden", "gate"}, K: 100},
		{Terms: []string{"news"}, K: 10},
		{Terms: []string{"news", "archive", "film"}, K: 5, Disjunctive: true},
		{Terms: []string{"bridge", "database"}, K: 1},
		{Terms: []string{"classic", "film"}, K: 50, Disjunctive: true},
	}
	if withTermScores {
		for _, q := range qs[:3] {
			q.WithTermScores = true
			qs = append(qs, q)
		}
	}
	return qs
}

func renderResults(res *QueryResult) string {
	out := ""
	for _, r := range res.Results {
		out += fmt.Sprintf("(%d %.9g)", r.Doc, r.Score)
	}
	return out
}

// TestApplyUpdatesMatchesSequential is the batch-write equivalence property
// test: for every method and several random traces and chunkings, the
// batched pipeline must be indistinguishable from one-at-a-time application
// through every query it can answer.
func TestApplyUpdatesMatchesSequential(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))

				seqCorpus := smallCorpus()
				batCorpus := smallCorpus()
				seq := buildMethod(t, name, ctor, seqCorpus)
				bat := buildMethod(t, name, ctor, batCorpus)

				// The same shuffled trace for both; genTrace is driven by its
				// own rng so both sides see identical updates.
				trace := genTrace(rand.New(rand.NewSource(seed*101)), seqCorpus, 120)
				// The corpora must agree on content updates (the methods read
				// tokens back through DocSource on some paths).
				syncCorpus(batCorpus, seqCorpus)

				for _, u := range trace {
					if err := seq.ApplyUpdates([]Update{u}); err != nil {
						t.Fatalf("seed %d: sequential %v on doc %d: %v", seed, u.Op, u.Doc, err)
					}
				}
				for lo := 0; lo < len(trace); {
					hi := lo + 1 + rng.Intn(40)
					if hi > len(trace) {
						hi = len(trace)
					}
					if err := bat.ApplyUpdates(trace[lo:hi]); err != nil {
						t.Fatalf("seed %d: ApplyUpdates[%d:%d]: %v", seed, lo, hi, err)
					}
					lo = hi
				}

				withTS := name == "ID-TermScore" || name == "Chunk-TermScore"
				for qi, q := range equivalenceQueries(withTS) {
					seqRes, err := seq.TopK(q)
					if err != nil {
						t.Fatalf("seed %d query %d: sequential TopK: %v", seed, qi, err)
					}
					batRes, err := bat.TopK(q)
					if err != nil {
						t.Fatalf("seed %d query %d: batched TopK: %v", seed, qi, err)
					}
					if got, want := renderResults(batRes), renderResults(seqRes); got != want {
						t.Errorf("seed %d query %d (%v): batched results %s != sequential %s", seed, qi, q.Terms, got, want)
					}
				}

				ss, bs := seq.Stats(), bat.Stats()
				if ss.ShortListEntries != bs.ShortListEntries {
					t.Errorf("seed %d: short-list entries %d (batched) != %d (sequential)", seed, bs.ShortListEntries, ss.ShortListEntries)
				}
			}
		})
	}
}

// syncCorpus makes dst's documents identical to src's (trace generation
// mutates the sequential corpus's view of content; both indexes must read
// the same tokens back through their DocSource).
func syncCorpus(dst, src *testCorpus) {
	dst.docs = map[DocID][]string{}
	for doc, tokens := range src.docs {
		dst.docs[doc] = append([]string(nil), tokens...)
	}
	dst.scores = map[DocID]float64{}
	for doc, s := range src.scores {
		dst.scores[doc] = s
	}
	dst.order = append([]DocID(nil), src.order...)
}

// TestApplyUpdatesEmptyAndSingle covers the degenerate batch shapes.
func TestApplyUpdatesEmptyAndSingle(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := smallCorpus()
			m := buildMethod(t, name, ctor, corpus)
			if err := m.ApplyUpdates(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if err := m.ApplyUpdates([]Update{{Op: ScoreOp, Doc: 1, Score: 500}}); err != nil {
				t.Fatalf("single-op batch: %v", err)
			}
			res, err := m.TopK(Query{Terms: []string{"golden", "gate"}, K: 3})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, r := range res.Results {
				if r.Doc == 1 && r.Score == 500 {
					found = true
				}
			}
			if !found {
				t.Errorf("batched score update not visible in query results: %v", res.Results)
			}
		})
	}
}

// TestApplyUpdatesErrorContinues checks that a failing update mid-batch is
// reported but does not abort the batch: the surrounding updates all apply,
// so the engine's queue flush records the failing event's error and keeps
// going.
func TestApplyUpdatesErrorContinues(t *testing.T) {
	corpus := smallCorpus()
	m := buildMethod(t, "Chunk", allConstructors()["Chunk"], corpus)
	batch := []Update{
		{Op: ScoreOp, Doc: 1, Score: 777},
		{Op: ScoreOp, Doc: 99999, Score: 1}, // unknown document: errors
		{Op: ScoreOp, Doc: 2, Score: 888},   // must still apply
	}
	if err := m.ApplyUpdates(batch); err == nil {
		t.Fatal("batch with unknown document did not error")
	}
	res, err := m.TopK(Query{Terms: []string{"golden", "gate"}, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	var s1, s2 float64
	for _, r := range res.Results {
		if r.Doc == 1 {
			s1 = r.Score
		}
		if r.Doc == 2 {
			s2 = r.Score
		}
	}
	if s1 != 777 {
		t.Errorf("doc 1 score = %g, want 777 (update before the error must be applied)", s1)
	}
	if s2 != 888 {
		t.Errorf("doc 2 score = %g, want 888 (update after the error must still be applied)", s2)
	}
}
