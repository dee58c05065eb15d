package index

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
)

// testCorpus is an in-memory DocSource for the correctness tests.
type testCorpus struct {
	docs   map[DocID][]string
	order  []DocID
	scores map[DocID]float64
}

func newTestCorpus() *testCorpus {
	return &testCorpus{docs: map[DocID][]string{}, scores: map[DocID]float64{}}
}

func (c *testCorpus) add(doc DocID, score float64, content string) {
	c.docs[doc] = strings.Fields(content)
	c.scores[doc] = score
	c.order = append(c.order, doc)
}

func (c *testCorpus) NumDocs() int { return len(c.docs) }

func (c *testCorpus) ForEach(fn func(doc DocID, tokens []string) error) error {
	for _, doc := range c.order {
		if err := fn(doc, c.docs[doc]); err != nil {
			return err
		}
	}
	return nil
}

func (c *testCorpus) Tokens(doc DocID) ([]string, error) {
	tokens, ok := c.docs[doc]
	if !ok {
		return nil, fmt.Errorf("test corpus: no document %d", doc)
	}
	return tokens, nil
}

func (c *testCorpus) scoreFunc() ScoreFunc {
	return func(doc DocID) float64 { return c.scores[doc] }
}

// oracle tracks the ground truth state during a randomized workload.
type oracle struct {
	tokens  map[DocID][]string
	scores  map[DocID]float64
	weights map[DocID]map[string]float32
	deleted map[DocID]bool
}

func newOracle(c *testCorpus) *oracle {
	o := &oracle{
		tokens:  map[DocID][]string{},
		scores:  map[DocID]float64{},
		weights: map[DocID]map[string]float32{},
		deleted: map[DocID]bool{},
	}
	for doc, tokens := range c.docs {
		o.setTokens(doc, tokens)
		o.scores[doc] = c.scores[doc]
	}
	return o
}

func (o *oracle) setTokens(doc DocID, tokens []string) {
	o.tokens[doc] = append([]string(nil), tokens...)
	tf := text.TermFrequencies(tokens)
	w := map[string]float32{}
	for term, n := range tf {
		w[term] = text.NormalizedTF(n, len(tokens))
	}
	o.weights[doc] = w
}

func (o *oracle) contains(doc DocID, term string) bool {
	_, ok := o.weights[doc][term]
	return ok
}

// topK computes the expected result scores for a query (SVR-only ranking).
func (o *oracle) topK(terms []string, k int, disjunctive bool) []float64 {
	return resultScores(o.rankedPairs(terms, k, disjunctive, nil))
}

// topKCombined computes expected combined SVR+term scores.
func (o *oracle) topKCombined(terms []string, idfs map[string]float64, k int, disjunctive bool) []float64 {
	idf := make([]float64, len(terms))
	for i, t := range terms {
		idf[i] = idfs[t]
	}
	return resultScores(o.rankedPairs(terms, k, disjunctive, idf))
}

// rankedPairs is the brute-force answer to a query as (doc, score) pairs
// under the result heap's tie rule: every live document matching terms,
// scored by its SVR score or, when idfs is non-nil, by svr + Σ TFIDF over the
// query terms it holds, added in query-term order as the index adds them;
// sorted by score descending, then document ascending; the first k.
func (o *oracle) rankedPairs(terms []string, k int, disjunctive bool, idfs []float64) []Result {
	var out []Result
	for doc := range o.tokens {
		if o.deleted[doc] {
			continue
		}
		match, score := 0, o.scores[doc]
		for i, term := range terms {
			w, ok := o.weights[doc][term]
			if !ok {
				continue
			}
			match++
			if idfs != nil {
				score += text.TFIDF(w, idfs[i])
			}
		}
		if match == len(terms) || disjunctive && match > 0 {
			out = append(out, Result{Doc: int64(doc), Score: score})
		}
	}
	slices.SortFunc(out, func(a, b Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	return out[:min(k, len(out))]
}

func newTestConfig(tb testing.TB) Config {
	tb.Helper()
	pool := buffer.MustNew(pagefile.MustNewMem(1024), 4096)
	return Config{Pool: pool, ThresholdRatio: 2, ChunkRatio: 2, MinChunkSize: 2, FancyListSize: 4}
}

// allConstructors returns one constructor per method, keyed by paper name.
func allConstructors() map[string]func(Config) (Method, error) {
	out := map[string]func(Config) (Method, error){}
	for _, k := range Kinds() {
		out[k.Name] = func(c Config) (Method, error) { return New(k.ID, c) }
	}
	return out
}

func smallCorpus() *testCorpus {
	c := newTestCorpus()
	c.add(1, 87.13, "golden gate bridge news archive")
	c.add(2, 310.5, "golden gate movie amateur film")
	c.add(3, 9100, "breaking news about the golden state")
	c.add(4, 55, "gate repair manual news")
	c.add(5, 1200, "american thrift golden gate classic news")
	c.add(6, 18, "unrelated document about databases")
	c.add(7, 640, "golden news daily gate bulletin")
	c.add(8, 2.5, "gate golden gate golden gate")
	return c
}

func buildMethod(t *testing.T, name string, ctor func(Config) (Method, error), corpus *testCorpus) Method {
	t.Helper()
	m, err := ctor(newTestConfig(t))
	if err != nil {
		t.Fatalf("%s constructor: %v", name, err)
	}
	if m.Name() != name {
		t.Fatalf("method name = %q, want %q", m.Name(), name)
	}
	if err := m.Build(corpus, corpus.scoreFunc()); err != nil {
		t.Fatalf("%s Build: %v", name, err)
	}
	return m
}

// One-op batches: ApplyUpdates is the only incremental write, so the tests'
// one-at-a-time updates go through it one update per call.
func updateScore(m Method, doc DocID, score float64) error {
	return m.ApplyUpdates([]Update{{Op: ScoreOp, Doc: doc, Score: score}})
}

func insertDocument(m Method, doc DocID, tokens []string, score float64) error {
	return m.ApplyUpdates([]Update{{Op: InsertOp, Doc: doc, Tokens: tokens, Score: score}})
}

func deleteDocument(m Method, doc DocID) error {
	return m.ApplyUpdates([]Update{{Op: DeleteOp, Doc: doc}})
}

func updateContent(m Method, doc DocID, oldTokens, newTokens []string) error {
	return m.ApplyUpdates([]Update{{Op: ContentOp, Doc: doc, OldTokens: oldTokens, NewTokens: newTokens}})
}

func checkTopKScores(t *testing.T, label string, got []Result, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results (%v), want %d (%v)", label, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i].Score != want[i] {
			t.Fatalf("%s: result %d score = %g, want %g (got %v want %v)", label, i, got[i].Score, want[i], got, want)
		}
	}
}

func TestBuildAndBasicConjunctiveQuery(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := smallCorpus()
			m := buildMethod(t, name, ctor, corpus)
			o := newOracle(corpus)

			res, err := m.TopK(Query{Terms: []string{"golden", "gate"}, K: 3})
			if err != nil {
				t.Fatalf("TopK: %v", err)
			}
			checkTopKScores(t, name+" conjunctive", res.Results, o.topK([]string{"golden", "gate"}, 3, false))

			// Every returned document must actually contain both terms.
			for _, r := range res.Results {
				if !o.contains(DocID(r.Doc), "golden") || !o.contains(DocID(r.Doc), "gate") {
					t.Errorf("doc %d returned but does not contain both query terms", r.Doc)
				}
			}
		})
	}
}

func TestDisjunctiveQuery(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := smallCorpus()
			m := buildMethod(t, name, ctor, corpus)
			o := newOracle(corpus)
			res, err := m.TopK(Query{Terms: []string{"news", "databases"}, K: 4, Disjunctive: true})
			if err != nil {
				t.Fatalf("TopK: %v", err)
			}
			checkTopKScores(t, name+" disjunctive", res.Results, o.topK([]string{"news", "databases"}, 4, true))
		})
	}
}

func TestQueryValidation(t *testing.T) {
	corpus := smallCorpus()
	m := buildMethod(t, "Chunk", allConstructors()["Chunk"], corpus)
	if _, err := m.TopK(Query{Terms: nil, K: 5}); err == nil {
		t.Error("query with no terms accepted")
	}
	if _, err := m.TopK(Query{Terms: []string{"news"}, K: 0}); err == nil {
		t.Error("query with k=0 accepted")
	}
}

func TestTermScoresUnsupported(t *testing.T) {
	for _, name := range []string{"ID", "Score", "Score-Threshold", "Chunk"} {
		ctor := allConstructors()[name]
		corpus := smallCorpus()
		m := buildMethod(t, name, ctor, corpus)
		if _, err := m.TopK(Query{Terms: []string{"news"}, K: 2, WithTermScores: true}); err != ErrTermScoresUnsupported {
			t.Errorf("%s: term-score query error = %v, want ErrTermScoresUnsupported", name, err)
		}
	}
}

func TestUnknownDocumentUpdate(t *testing.T) {
	for name, ctor := range allConstructors() {
		corpus := smallCorpus()
		m := buildMethod(t, name, ctor, corpus)
		if err := updateScore(m, 999, 50); err == nil {
			t.Errorf("%s: UpdateScore of unknown doc succeeded", name)
		}
		if err := deleteDocument(m, 999); err == nil {
			t.Errorf("%s: DeleteDocument of unknown doc succeeded", name)
		}
		if err := updateContent(m, 999, nil, []string{"golden"}); !errors.Is(err, ErrUnknownDocument) {
			t.Errorf("%s: UpdateContent of unknown doc = %v, want ErrUnknownDocument", name, err)
		}
		// An unchanged score is not an update: the engine forwards every
		// re-evaluated score and relies on the method to drop the equal ones
		// before they count, write or publish.  (The listed counters all move
		// when the score does change; Kind.listTable kinds would also gain a
		// ListScore/ListChunk row.)
		tm, _ := m.(*thresholdMethod)
		before := m.Stats()
		if err := updateScore(m, 1, 87.13); err != nil {
			t.Errorf("%s: UpdateScore to the current score = %v, want nil", name, err)
		}
		after := m.Stats()
		if before.ScoreUpdates != after.ScoreUpdates || before.ShortListPostingsWritten != after.ShortListPostingsWritten ||
			before.TablePatches != after.TablePatches || before.Epoch != after.Epoch {
			t.Errorf("%s: an unchanged score moved the counters:\nbefore %+v\nafter  %+v", name, before, after)
		}
		if tm != nil && tm.table.Len() != 0 {
			t.Errorf("%s: an unchanged score left %d ListScore/ListChunk rows", name, tm.table.Len())
		}
		// A score update must not resurrect a deleted document (doc 3 has the
		// top score among the "golden" documents).
		if err := deleteDocument(m, 3); err != nil {
			t.Fatalf("%s: DeleteDocument: %v", name, err)
		}
		// A deleted document is unknown to every op, and a refused op moves no
		// collection statistic: neither the document count nor any df.
		terms := []string{"golden", "news", "zebra"}
		numDocs, df, err := m.TermStats(terms)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []Update{
			{Op: ScoreOp, Doc: 3, Score: 99999},
			{Op: DeleteOp, Doc: 3},
			{Op: ContentOp, Doc: 3, OldTokens: corpus.docs[3], NewTokens: []string{"zebra", "golden"}},
		} {
			if err := m.ApplyUpdates([]Update{u}); !errors.Is(err, ErrUnknownDocument) {
				t.Errorf("%s: %v of deleted doc = %v, want ErrUnknownDocument", name, u.Op, err)
			}
		}
		if n, d, _ := m.TermStats(terms); n != numDocs || !reflect.DeepEqual(d, df) {
			t.Errorf("%s: ops on a deleted doc moved the statistics: numDocs %d -> %d, df %v -> %v", name, numDocs, n, df, d)
		}
		res, err := m.TopK(Query{Terms: []string{"golden"}, K: 10})
		if err != nil {
			t.Fatalf("%s: TopK: %v", name, err)
		}
		for _, r := range res.Results {
			if r.Doc == 3 {
				t.Errorf("%s: deleted doc 3 reappeared in results after UpdateScore: %v", name, res.Results)
			}
		}
	}
}

// TestDeleteUncountsTerms checks that a delete takes the document out of its
// terms' document frequencies on every kind, for a built document (content
// from the source) and an inserted one (content from the insert): TermStats
// then reports, for each of the deleted document's terms, the number of live
// documents that hold it, and the live document count.
func TestDeleteUncountsTerms(t *testing.T) {
	for name, ctor := range allConstructors() {
		corpus := smallCorpus()
		m := buildMethod(t, name, ctor, corpus)
		o := newOracle(corpus)
		corpus.add(50, 700, "golden ferry news")
		inserted := strings.Fields("golden ferry news")
		if err := insertDocument(m, 50, inserted, 700); err != nil {
			t.Fatal(err)
		}
		o.setTokens(50, inserted)
		for _, doc := range []DocID{3, 50} {
			terms := text.DistinctTerms(o.tokens[doc])
			if err := deleteDocument(m, doc); err != nil {
				t.Fatalf("%s: delete %d: %v", name, doc, err)
			}
			o.deleted[doc] = true
			numDocs, df, err := m.TermStats(terms)
			if err != nil {
				t.Fatal(err)
			}
			live := 0
			want := make([]int64, len(terms))
			for d := range o.tokens {
				if o.deleted[d] {
					continue
				}
				live++
				for i, term := range terms {
					if o.contains(d, term) {
						want[i]++
					}
				}
			}
			if numDocs != int64(live) || !reflect.DeepEqual(df, want) {
				t.Errorf("%s: after deleting %d: %d docs, df(%v) = %v; want %d docs, df %v", name, doc, numDocs, terms, df, live, want)
			}
		}
	}
}

// failingSource serves builds but fails every Tokens call, like a relation
// whose row store went away.
type failingSource struct {
	*testCorpus
	err error
}

func (f failingSource) Tokens(DocID) ([]string, error) { return nil, f.err }

// TestDocTokensSourceFailure pins the one docTokens contract on every kind
// that reads content on a score update or a merge: the document source is
// the only copy of a document's content, and when it fails the error wraps
// both ErrUnknownDocument and the source's error.
func TestDocTokensSourceFailure(t *testing.T) {
	srcErr := errors.New("row store offline")
	wantBoth := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, ErrUnknownDocument) || !errors.Is(err, srcErr) {
			t.Errorf("%s = %v, want an error wrapping ErrUnknownDocument and the source's error", label, err)
		}
	}
	for name, ctor := range allConstructors() {
		corpus := smallCorpus()
		m := buildMethod(t, name, ctor, corpus)
		m.SetSource(failingSource{corpus, srcErr})
		// Document 8 jumps past every threshold; only the ID family never
		// reads content on a score update.
		err := updateScore(m, 8, 99999)
		if name == "ID" || name == "ID-TermScore" {
			if err != nil {
				t.Errorf("%s: UpdateScore read content: %v", name, err)
			}
		} else {
			wantBoth(name+" UpdateScore", err)
		}
		// The Score method has nothing to merge; every other kind rebuilds
		// from content.
		if err := m.MergeShortLists(); name == "Score" {
			if err != nil {
				t.Errorf("Score: MergeShortLists: %v", err)
			}
		} else {
			wantBoth(name+" MergeShortLists", err)
		}
	}
}

// docFailingSource serves builds but fails Tokens for one document.
type docFailingSource struct {
	*testCorpus
	doc DocID
	err error
}

func (f docFailingSource) Tokens(doc DocID) ([]string, error) {
	if doc == f.doc {
		return nil, f.err
	}
	return f.testCorpus.Tokens(doc)
}

// TestFailedScoreUpdateChangesNothing: the kinds whose score update reads
// document content (Algorithm 1's short-list rewrite, the Score method's
// posting moves) read it before their first write, so an update the
// document source fails leaves the score, the answers and the short lists
// as they were — a new score beside postings at the old list key would
// break Theorems 1–2 until a merge.  The same update through a working
// source then applies.
func TestFailedScoreUpdateChangesNothing(t *testing.T) {
	srcErr := errors.New("row store offline")
	ctors := allConstructors()
	golden := Query{Terms: []string{"golden"}, K: 1}
	for _, name := range []string{"Chunk", "Score-Threshold", "Score"} {
		corpus := smallCorpus()
		m := buildMethod(t, name, ctors[name], corpus)
		m.SetSource(docFailingSource{corpus, 8, srcErr})
		before, err := m.TopK(golden)
		if err != nil {
			t.Fatal(err)
		}
		shortBefore := m.Stats().ShortListEntries
		// Document 8 (2.5) jumps past every threshold, so its postings move.
		if err := updateScore(m, 8, 99999); !errors.Is(err, ErrUnknownDocument) || !errors.Is(err, srcErr) {
			t.Fatalf("%s: update through a failing source = %v, want ErrUnknownDocument", name, err)
		}
		if score, ok, err := m.ScoreOf(8); err != nil || !ok || score != 2.5 {
			t.Errorf("%s: ScoreOf(8) after the failed update = %g, %v, %v; want 2.5", name, score, ok, err)
		}
		after, err := m.TopK(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after.Results, before.Results) {
			t.Errorf("%s: golden top-1 after the failed update = %v, want %v", name, after.Results, before.Results)
		}
		if got := m.Stats().ShortListEntries; got != shortBefore {
			t.Errorf("%s: %d short-list postings after the failed update, want %d", name, got, shortBefore)
		}

		m.SetSource(corpus)
		if err := updateScore(m, 8, 99999); err != nil {
			t.Fatalf("%s: update through a working source: %v", name, err)
		}
		res, err := m.TopK(golden)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != 1 || res.Results[0].Doc != 8 || res.Results[0].Score != 99999 {
			t.Errorf("%s: golden top-1 after the update = %v, want document 8 at 99999", name, res.Results)
		}
	}
}

// TestScoreLookupsCountProbes pins QueryResult.ScoreLookups to the Score-table
// probes the query made.  Document 1 (87.13, in chunk 2 of smallCorpus's
// four) is lifted to 5000, two chunks up, so its postings are rewritten into
// the short lists and its stale long-list copy stays in the scan.  A
// single-term query visiting all six "golden" documents then probes once per
// posting on the kinds whose lists carry no score — on the Chunk orders the
// stale copy too, since they read a candidate's Score before its ListChunk
// row — twice in total on Score-Threshold (only the updated document has a
// ListScore row, read first; both its copies then read the Score row, whose
// short-list bit tells the stale one apart) and never on Score.
//
// The Chunk orders' ListChunk probes are pinned beside them, after document 1
// falls back to 20 (chunk 1, so no rewrite: its short copy stays at chunk 4
// and its long copy at chunk 2 is stale).  Only document 1 has the
// short-list bit, so only its candidates can cost a ListChunk probe: its
// short copy does, first in the scan.  At k = 3 the heap is full after
// chunk 3 with a minimum of 640, so the stale copy costs one Score probe and
// no ListChunk probe; at k = 2 the two chunk-3 candidates are cut the same
// way and the scan stops before the stale copy.
func TestScoreLookupsCountProbes(t *testing.T) {
	want := map[string]int{"ID": 6, "ID-TermScore": 6, "Score": 0, "Score-Threshold": 2, "Chunk": 7, "Chunk-TermScore": 7}
	for name, ctor := range allConstructors() {
		m := buildMethod(t, name, ctor, smallCorpus())
		if err := updateScore(m, 1, 5000); err != nil {
			t.Fatal(err)
		}
		res, err := m.TopK(Query{Terms: []string{"golden"}, K: 10})
		if err != nil {
			t.Fatalf("%s: TopK: %v", name, err)
		}
		if len(res.Results) != 6 || res.ScoreLookups != want[name] {
			t.Errorf("%s: %d results with %d score lookups, want 6 with %d", name, len(res.Results), res.ScoreLookups, want[name])
		}
		tm, ok := m.(*thresholdMethod)
		if !ok || name == "Score-Threshold" {
			continue
		}
		if err := updateScore(m, 1, 20); err != nil {
			t.Fatal(err)
		}
		for _, leg := range []struct{ k, scoreProbes, listProbes int }{{3, 6, 1}, {2, 5, 1}} {
			q := Query{Terms: []string{"golden"}, K: leg.k}
			s, guard, err := tm.acquire()
			if err != nil {
				t.Fatal(err)
			}
			ctx := newQueryCtx(s, &q)
			res, err := tm.topK(ctx, q)
			listProbes := ctx.list.lookups
			ctx.release()
			guard.Leave()
			if err != nil {
				t.Fatalf("%s: k=%d: %v", name, leg.k, err)
			}
			if len(res.Results) != leg.k || res.ScoreLookups != leg.scoreProbes || listProbes != leg.listProbes {
				t.Errorf("%s: k=%d: %d results, %d Score and %d ListChunk probes, want %d, %d and %d",
					name, leg.k, len(res.Results), res.ScoreLookups, listProbes, leg.k, leg.scoreProbes, leg.listProbes)
			}
		}
	}
}

// TestKindRegistry covers the registry end to end: every kind constructs
// under its ID, reports the paper name the catalogs persist (written out
// here so a rename cannot pass silently), and survives State → Restore →
// State unchanged, answering the same query.
func TestKindRegistry(t *testing.T) {
	want := []struct{ id, name string }{
		{"id", "ID"},
		{"score", "Score"},
		{"score-threshold", "Score-Threshold"},
		{"chunk", "Chunk"},
		{"id-termscore", "ID-TermScore"},
		{"chunk-termscore", "Chunk-TermScore"},
	}
	kinds := Kinds()
	if len(kinds) != len(want) {
		t.Fatalf("registry holds %d kinds, want %d", len(kinds), len(want))
	}
	for i, k := range kinds {
		if k.ID != want[i].id || k.Name != want[i].name {
			t.Fatalf("kind %d = (%q, %q), want (%q, %q)", i, k.ID, k.Name, want[i].id, want[i].name)
		}
		cfg := newTestConfig(t)
		m, err := New(k.ID, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", k.ID, err)
		}
		corpus := smallCorpus()
		if err := m.Build(corpus, corpus.scoreFunc()); err != nil {
			t.Fatalf("%s: Build: %v", k.ID, err)
		}
		// Fill the short lists and the list table so the round trip carries
		// every structure the kind has.
		if err := updateScore(m, 8, 99999); err != nil {
			t.Fatal(err)
		}
		st := m.State()
		if m.Name() != want[i].name || st.Kind != want[i].name {
			t.Errorf("%s: Name() = %q, State().Kind = %q, want %q", k.ID, m.Name(), st.Kind, want[i].name)
		}
		r, err := Restore(cfg, st)
		if err != nil {
			t.Fatalf("%s: Restore: %v", k.ID, err)
		}
		r.SetSource(corpus)
		if got := r.State(); !reflect.DeepEqual(got, st) {
			t.Errorf("%s: state changed across Restore:\n got %+v\nwant %+v", k.ID, got, st)
		}
		q := Query{Terms: []string{"golden", "gate"}, K: 5}
		live, err := m.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := r.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, restored) {
			t.Errorf("%s: restored method answers %+v, live %+v", k.ID, restored, live)
		}
	}
	if _, err := New("bogus", newTestConfig(t)); err == nil {
		t.Error("New of an unknown kind succeeded")
	}
}

func TestQueryForAbsentTerm(t *testing.T) {
	for name, ctor := range allConstructors() {
		corpus := smallCorpus()
		m := buildMethod(t, name, ctor, corpus)
		res, err := m.TopK(Query{Terms: []string{"zzzmissing"}, K: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Results) != 0 {
			t.Errorf("%s: query for absent term returned %d results", name, len(res.Results))
		}
		// Conjunctive query with one absent term must return nothing.
		res, err = m.TopK(Query{Terms: []string{"golden", "zzzmissing"}, K: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Results) != 0 {
			t.Errorf("%s: conjunctive query with absent term returned %d results", name, len(res.Results))
		}
	}
}

func TestScoreUpdatesAreReflectedInResults(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := smallCorpus()
			m := buildMethod(t, name, ctor, corpus)
			o := newOracle(corpus)

			// Doc 8 starts with the lowest score; a dramatic update ("flash
			// crowd") must push it to the top of the golden+gate ranking.
			if err := updateScore(m, 8, 50000); err != nil {
				t.Fatalf("UpdateScore: %v", err)
			}
			o.scores[8] = 50000
			// Doc 3 drops.
			if err := updateScore(m, 3, 1); err != nil {
				t.Fatalf("UpdateScore: %v", err)
			}
			o.scores[3] = 1

			res, err := m.TopK(Query{Terms: []string{"golden", "gate"}, K: 3})
			if err != nil {
				t.Fatalf("TopK: %v", err)
			}
			want := o.topK([]string{"golden", "gate"}, 3, false)
			checkTopKScores(t, name, res.Results, want)
			if res.Results[0].Doc != 8 {
				t.Errorf("%s: doc 8 should rank first after its flash-crowd update, got %v", name, res.Results)
			}
		})
	}
}

// TestTieAtStoppingBound: Score-Threshold's stopping bound t·listScore is
// attainable, since Algorithm 1 leaves a score equal to it unrewritten.  Doc 1
// climbs from 10 to exactly 2·10 and ties doc 2 at the heap minimum; the lower
// doc ID wins the tie, so the scan must not stop on equality there.
func TestTieAtStoppingBound(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := newTestCorpus()
			corpus.add(1, 10, "word")
			corpus.add(2, 20, "word")
			corpus.add(3, 30, "word")
			corpus.add(4, 1, "word")
			corpus.add(5, 2, "word")
			m := buildMethod(t, name, ctor, corpus)
			if err := updateScore(m, 1, 20); err != nil {
				t.Fatal(err)
			}
			res, err := m.TopK(Query{Terms: []string{"word"}, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := []Result{{Doc: 3, Score: 30}, {Doc: 1, Score: 20}}
			if len(res.Results) != len(want) || res.Results[0] != want[0] || res.Results[1] != want[1] {
				t.Errorf("TopK = %v, want %v", res.Results, want)
			}
		})
	}
}

func TestRandomizedScoreUpdateOracle(t *testing.T) {
	// A randomized torture test of Theorem 1/2: after arbitrary sequences of
	// score updates (including large jumps and decreases), every method must
	// return exactly the top-k under the latest scores.
	vocab := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	rng := rand.New(rand.NewSource(42))

	corpus := newTestCorpus()
	const nDocs = 120
	for i := 0; i < nDocs; i++ {
		nTerms := rng.Intn(5) + 2
		words := make([]string, 0, nTerms)
		for j := 0; j < nTerms; j++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		corpus.add(DocID(i+1), float64(rng.Intn(100000)), strings.Join(words, " "))
	}

	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			m := buildMethod(t, name, ctor, corpus)
			o := newOracle(corpus)
			localRng := rand.New(rand.NewSource(7))

			for round := 0; round < 6; round++ {
				// Apply a burst of random score updates.
				for u := 0; u < 40; u++ {
					doc := DocID(localRng.Intn(nDocs) + 1)
					var newScore float64
					switch localRng.Intn(3) {
					case 0: // small perturbation
						newScore = o.scores[doc] + float64(localRng.Intn(200)) - 100
					case 1: // flash crowd
						newScore = o.scores[doc] + float64(localRng.Intn(80000))
					default: // collapse
						newScore = o.scores[doc] / float64(localRng.Intn(10)+1)
					}
					if newScore < 0 {
						newScore = 0
					}
					if err := updateScore(m, doc, newScore); err != nil {
						t.Fatalf("UpdateScore(%d, %g): %v", doc, newScore, err)
					}
					o.scores[doc] = newScore
				}
				// Check several queries against the oracle.
				for q := 0; q < 8; q++ {
					nTerms := localRng.Intn(2) + 1
					terms := make([]string, 0, nTerms)
					for j := 0; j < nTerms; j++ {
						terms = append(terms, vocab[localRng.Intn(len(vocab))])
					}
					k := localRng.Intn(10) + 1
					disjunctive := localRng.Intn(2) == 0
					res, err := m.TopK(Query{Terms: terms, K: k, Disjunctive: disjunctive})
					if err != nil {
						t.Fatalf("TopK(%v): %v", terms, err)
					}
					want := o.topK(terms, k, disjunctive)
					checkTopKScores(t, fmt.Sprintf("%s round %d query %v k=%d disj=%v", name, round, terms, k, disjunctive), res.Results, want)
				}
			}
		})
	}
}

func TestCombinedTermScoreOracle(t *testing.T) {
	vocab := []string{"red", "green", "blue", "cyan", "magenta", "yellow"}
	rng := rand.New(rand.NewSource(13))
	corpus := newTestCorpus()
	const nDocs = 80
	for i := 0; i < nDocs; i++ {
		nTerms := rng.Intn(6) + 1
		words := make([]string, 0, nTerms)
		for j := 0; j < nTerms; j++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		corpus.add(DocID(i+1), float64(rng.Intn(1000)), strings.Join(words, " "))
	}

	ctors := map[string]func(Config) (Method, error){
		"ID-TermScore":    allConstructors()["ID-TermScore"],
		"Chunk-TermScore": allConstructors()["Chunk-TermScore"],
	}
	for name, ctor := range ctors {
		t.Run(name, func(t *testing.T) {
			m := buildMethod(t, name, ctor, corpus)
			o := newOracle(corpus)
			localRng := rand.New(rand.NewSource(3))

			// Apply some score updates so the combined ranking reflects fresh
			// SVR scores too.
			for u := 0; u < 60; u++ {
				doc := DocID(localRng.Intn(nDocs) + 1)
				newScore := float64(localRng.Intn(5000))
				if err := updateScore(m, doc, newScore); err != nil {
					t.Fatalf("UpdateScore: %v", err)
				}
				o.scores[doc] = newScore
			}

			idfs := map[string]float64{}
			stats := text.CollectionStats{NumDocs: int64(nDocs)}
			for _, term := range vocab {
				df := 0
				for doc := range o.tokens {
					if o.contains(doc, term) {
						df++
					}
				}
				idfs[term] = text.IDF(stats, int64(df))
			}

			for q := 0; q < 12; q++ {
				nTerms := localRng.Intn(2) + 1
				terms := make([]string, 0, nTerms)
				for j := 0; j < nTerms; j++ {
					terms = append(terms, vocab[localRng.Intn(len(vocab))])
				}
				k := localRng.Intn(8) + 1
				disjunctive := localRng.Intn(2) == 0
				res, err := m.TopK(Query{Terms: terms, K: k, Disjunctive: disjunctive, WithTermScores: true})
				if err != nil {
					t.Fatalf("TopK: %v", err)
				}
				want := o.topKCombined(terms, idfs, k, disjunctive)
				if len(res.Results) != len(want) {
					t.Fatalf("%s query %v: got %d results, want %d", name, terms, len(res.Results), len(want))
				}
				for i := range want {
					if diff := res.Results[i].Score - want[i]; diff > 1e-6 || diff < -1e-6 {
						t.Fatalf("%s query %v k=%d disj=%v: result %d score %.8f, want %.8f",
							name, terms, k, disjunctive, i, res.Results[i].Score, want[i])
					}
				}
			}
		})
	}
}

func TestInsertDeleteAndContentUpdates(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := smallCorpus()
			m := buildMethod(t, name, ctor, corpus)
			o := newOracle(corpus)

			// Insert a new document; it must be findable immediately.
			newTokens := strings.Fields("golden gate ferry schedule news")
			corpus.add(100, 7000, "golden gate ferry schedule news")
			if err := insertDocument(m, 100, newTokens, 7000); err != nil {
				t.Fatalf("InsertDocument: %v", err)
			}
			o.setTokens(100, newTokens)
			o.scores[100] = 7000

			res, err := m.TopK(Query{Terms: []string{"golden", "gate"}, K: 5})
			if err != nil {
				t.Fatalf("TopK after insert: %v", err)
			}
			checkTopKScores(t, name+" after insert", res.Results, o.topK([]string{"golden", "gate"}, 5, false))
			found := false
			for _, r := range res.Results {
				if r.Doc == 100 {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: inserted document not in results %v", name, res.Results)
			}

			// Delete an existing document; it must disappear.
			if err := deleteDocument(m, 5); err != nil {
				t.Fatalf("DeleteDocument: %v", err)
			}
			o.deleted[5] = true
			res, err = m.TopK(Query{Terms: []string{"golden", "gate"}, K: 5})
			if err != nil {
				t.Fatalf("TopK after delete: %v", err)
			}
			for _, r := range res.Results {
				if r.Doc == 5 {
					t.Errorf("%s: deleted document 5 still returned", name)
				}
			}
			checkTopKScores(t, name+" after delete", res.Results, o.topK([]string{"golden", "gate"}, 5, false))

			// Content update: doc 6 gains the query terms, doc 2 loses them.
			oldTokens6 := corpus.docs[6]
			newTokens6 := strings.Fields("golden gate databases survey")
			if err := updateContent(m, 6, oldTokens6, newTokens6); err != nil {
				t.Fatalf("UpdateContent: %v", err)
			}
			corpus.docs[6] = newTokens6
			o.setTokens(6, newTokens6)

			oldTokens2 := corpus.docs[2]
			newTokens2 := strings.Fields("amateur film festival")
			if err := updateContent(m, 2, oldTokens2, newTokens2); err != nil {
				t.Fatalf("UpdateContent: %v", err)
			}
			corpus.docs[2] = newTokens2
			o.setTokens(2, newTokens2)

			res, err = m.TopK(Query{Terms: []string{"golden", "gate"}, K: 6})
			if err != nil {
				t.Fatalf("TopK after content updates: %v", err)
			}
			want := o.topK([]string{"golden", "gate"}, 6, false)
			checkTopKScores(t, name+" after content updates", res.Results, want)
			for _, r := range res.Results {
				if r.Doc == 2 {
					t.Errorf("%s: doc 2 no longer contains the terms but was returned", name)
				}
			}
		})
	}
}

func TestEarlyTerminationBehaviour(t *testing.T) {
	// Build a corpus where one very common term has many postings; the
	// chunked and score-ordered methods should stop early for small k while
	// the ID method must scan everything.
	corpus := newTestCorpus()
	rng := rand.New(rand.NewSource(5))
	const nDocs = 3000
	for i := 0; i < nDocs; i++ {
		content := "common"
		if i%3 == 0 {
			content += " paired"
		}
		corpus.add(DocID(i+1), float64(rng.Intn(100000)), content)
	}

	cfg := func() Config {
		pool := buffer.MustNew(pagefile.MustNewMem(1024), 8192)
		return Config{Pool: pool, ThresholdRatio: 2, ChunkRatio: 2, MinChunkSize: 10, FancyListSize: 8}
	}

	idm, err := New("id", cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := idm.Build(corpus, corpus.scoreFunc()); err != nil {
		t.Fatal(err)
	}
	chunk, err := New("chunk", cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := chunk.Build(corpus, corpus.scoreFunc()); err != nil {
		t.Fatal(err)
	}
	st, err := New("score-threshold", cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Build(corpus, corpus.scoreFunc()); err != nil {
		t.Fatal(err)
	}

	q := Query{Terms: []string{"common", "paired"}, K: 10}
	idRes, err := idm.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	chunkRes, err := chunk.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	stRes, err := st.TopK(q)
	if err != nil {
		t.Fatal(err)
	}

	// Same answers.
	checkTopKScores(t, "chunk vs id", chunkRes.Results, resultScores(idRes.Results))
	checkTopKScores(t, "score-threshold vs id", stRes.Results, resultScores(idRes.Results))

	if idRes.Stopped {
		t.Error("ID method reported early termination; it must always scan the whole list")
	}
	if !chunkRes.Stopped {
		t.Error("Chunk method did not terminate early on a small-k query")
	}
	if !stRes.Stopped {
		t.Error("Score-Threshold method did not terminate early on a small-k query")
	}
	if chunkRes.PostingsScanned >= idRes.PostingsScanned {
		t.Errorf("Chunk scanned %d postings, ID scanned %d; Chunk should scan fewer", chunkRes.PostingsScanned, idRes.PostingsScanned)
	}
	if stRes.PostingsScanned >= idRes.PostingsScanned {
		t.Errorf("Score-Threshold scanned %d postings, ID scanned %d; Score-Threshold should scan fewer", stRes.PostingsScanned, idRes.PostingsScanned)
	}
}

// TestIDSeekIsPerTerm checks that whether an ID-family conjunction
// leapfrogs depends on the query's own terms only.  Each query runs before
// and after the insert of a document that holds none of its terms; results,
// Stopped (never set: the ID family scans to the end) and the postings
// scanned must not move.  A selective pair over lists with sparse overlap
// must scan fewer postings than its lists hold: without the seek the merge
// passes every posting of both lists, since the rare term's list ends at the
// last document.
func TestIDSeekIsPerTerm(t *testing.T) {
	sparse := newTestCorpus()
	const nDocs = 2000
	for i := 1; i <= nDocs; i++ {
		content := "common"
		if i%100 == 0 {
			content += " rare"
		}
		sparse.add(DocID(i), float64(i%97), content)
	}
	cases := []struct {
		corpus  *testCorpus
		queries []Query
		held    int // postings in the first query's lists, when it must seek
	}{
		{smallCorpus(), []Query{
			{Terms: []string{"golden", "gate"}, K: 3},
			{Terms: []string{"golden", "zebra"}, K: 3},
		}, 0},
		{sparse, []Query{
			{Terms: []string{"rare", "common"}, K: 5},
			{Terms: []string{"rare", "zebra"}, K: 5},
		}, nDocs + nDocs/100},
	}
	for _, name := range []string{"ID", "ID-TermScore"} {
		for ci, c := range cases {
			m := buildMethod(t, name, allConstructors()[name], c.corpus)
			before := make([]*QueryResult, len(c.queries))
			for i, q := range c.queries {
				res, err := m.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				before[i] = res
			}
			if err := insertDocument(m, 1_000_000, []string{"unrelated", "quokka"}, 50); err != nil {
				t.Fatal(err)
			}
			for i, q := range c.queries {
				label := fmt.Sprintf("%s corpus %d %v", name, ci, q.Terms)
				after, err := m.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				b := before[i]
				if b.Stopped || after.Stopped {
					t.Errorf("%s: stopped %v before the insert, %v after; the ID family never stops early", label, b.Stopped, after.Stopped)
				}
				if !reflect.DeepEqual(b.Results, after.Results) || b.PostingsScanned != after.PostingsScanned {
					t.Errorf("%s: an unrelated insert moved the answer: %v scanning %d before, %v scanning %d after",
						label, b.Results, b.PostingsScanned, after.Results, after.PostingsScanned)
				}
				if i == 0 && c.held > 0 && after.PostingsScanned >= c.held {
					t.Errorf("%s: scanned %d postings of the %d its lists hold; the merge did not seek", label, after.PostingsScanned, c.held)
				}
			}
		}
	}
}

func resultScores(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Score
	}
	return out
}

func TestStatsAndSizes(t *testing.T) {
	corpus := smallCorpus()
	sizes := map[string]uint64{}
	for name, ctor := range allConstructors() {
		m := buildMethod(t, name, ctor, corpus)
		s := m.Stats()
		if s.Method != name {
			t.Errorf("Stats.Method = %q, want %q", s.Method, name)
		}
		if s.LongListBytes == 0 {
			t.Errorf("%s: LongListBytes is zero after build", name)
		}
		sizes[name] = s.LongListBytes
		if err := updateScore(m, 1, 500); err != nil {
			t.Fatal(err)
		}
		if got := m.Stats().ScoreUpdates; got != 1 {
			t.Errorf("%s: ScoreUpdates = %d, want 1", name, got)
		}
	}
	// Table 1's qualitative ordering: Score > Score-Threshold > ID (Score
	// stores updatable lists with scores; Score-Threshold stores scores in
	// immutable lists; ID stores bare d-gapped IDs).  TermScore variants
	// exceed their score-free counterparts.
	if !(sizes["Score"] > sizes["Score-Threshold"]) {
		t.Errorf("size ordering violated: Score (%d) should exceed Score-Threshold (%d)", sizes["Score"], sizes["Score-Threshold"])
	}
	if !(sizes["Score-Threshold"] > sizes["ID"]) {
		t.Errorf("size ordering violated: Score-Threshold (%d) should exceed ID (%d)", sizes["Score-Threshold"], sizes["ID"])
	}
	if !(sizes["ID-TermScore"] > sizes["ID"]) {
		t.Errorf("size ordering violated: ID-TermScore (%d) should exceed ID (%d)", sizes["ID-TermScore"], sizes["ID"])
	}
	if !(sizes["Chunk-TermScore"] > sizes["Chunk"]) {
		t.Errorf("size ordering violated: Chunk-TermScore (%d) should exceed Chunk (%d)", sizes["Chunk-TermScore"], sizes["Chunk"])
	}
}

func TestUpdateCostAsymmetry(t *testing.T) {
	// The Score method must touch the long lists on every update; the ID and
	// Chunk methods must not (for updates within the chunk threshold).
	corpus := smallCorpus()
	idm := buildMethod(t, "ID", allConstructors()["ID"], corpus)
	score := buildMethod(t, "Score", allConstructors()["Score"], corpus)
	chunk := buildMethod(t, "Chunk", allConstructors()["Chunk"], corpus)

	// Small update: stays within a factor-2 chunk.
	if err := updateScore(idm, 1, 88); err != nil {
		t.Fatal(err)
	}
	if err := updateScore(score, 1, 88); err != nil {
		t.Fatal(err)
	}
	if err := updateScore(chunk, 1, 88); err != nil {
		t.Fatal(err)
	}

	if got := idm.Stats().ShortListPostingsWritten + idm.Stats().LongListPostingsWritten; got != 0 {
		t.Errorf("ID method wrote %d postings for a score update, want 0", got)
	}
	if got := chunk.Stats().ShortListPostingsWritten; got != 0 {
		t.Errorf("Chunk method wrote %d short-list postings for a small update, want 0", got)
	}
	if got := score.Stats().LongListPostingsWritten; got == 0 {
		t.Error("Score method wrote no long-list postings for a score update; it must rewrite every term's posting")
	}

	// Large update: the Chunk method must now rewrite the short lists.
	if err := updateScore(chunk, 8, 99999); err != nil {
		t.Fatal(err)
	}
	if got := chunk.Stats().ShortListPostingsWritten; got == 0 {
		t.Error("Chunk method wrote no short-list postings for a two-chunk jump")
	}
}
