package core

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

func newArchiveEngine(t testing.TB, nMovies int) (*Engine, *relation.DB) {
	t.Helper()
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 8192))
	params := workload.DefaultArchiveParams()
	params.NumMovies = nMovies
	if _, err := workload.BuildArchiveDB(db, params); err != nil {
		t.Fatal(err)
	}
	return NewEngine(db, Options{}), db
}

func TestCreateTextIndexValidation(t *testing.T) {
	engine, _ := newArchiveEngine(t, 50)
	if _, err := engine.CreateTextIndex("x", "Nope", "desc", IndexOptions{Spec: workload.ArchiveSpec()}); err == nil {
		t.Error("index over missing table created")
	}
	if _, err := engine.CreateTextIndex("x", "Movies", "missing", IndexOptions{Spec: workload.ArchiveSpec()}); err == nil {
		t.Error("index over missing column created")
	}
	if _, err := engine.CreateTextIndex("x", "Movies", "mID", IndexOptions{Spec: workload.ArchiveSpec()}); err == nil {
		t.Error("index over non-text column created")
	}
	if _, err := engine.CreateTextIndex("x", "Movies", "desc", IndexOptions{Method: "bogus", Spec: workload.ArchiveSpec()}); err == nil {
		t.Error("index with bogus method created")
	}
	if _, err := engine.CreateTextIndex("ok", "Movies", "desc", IndexOptions{Spec: workload.ArchiveSpec()}); err != nil {
		t.Fatalf("valid index creation failed: %v", err)
	}
	if _, err := engine.CreateTextIndex("ok", "Movies", "desc", IndexOptions{Spec: workload.ArchiveSpec()}); err == nil {
		t.Error("duplicate index name accepted")
	}
	if _, err := engine.TextIndex("ok"); err != nil {
		t.Errorf("TextIndex lookup failed: %v", err)
	}
	if _, err := engine.TextIndex("missing"); err == nil {
		t.Error("lookup of missing index succeeded")
	}
	if names := engine.TextIndexNames(); len(names) != 1 || names[0] != "ok" {
		t.Errorf("TextIndexNames = %v", names)
	}
}

func TestSearchRankingMatchesViewScores(t *testing.T) {
	for _, method := range AllMethods() {
		if method == MethodScore {
			// The Score method is exercised too, but with a smaller database
			// below to keep build times sensible; skip it in this loop.
			continue
		}
		t.Run(string(method), func(t *testing.T) {
			engine, _ := newArchiveEngine(t, 300)
			idx, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", IndexOptions{
				Method: method,
				Spec:   workload.ArchiveSpec(),
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := idx.Search(SearchRequest{Query: "golden gate", K: 10, LoadRows: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Hits) == 0 {
				t.Fatal("no results for a common query")
			}
			// Hits must be sorted by score and each hit's score must equal the
			// view's current score of that document.
			for i, hit := range res.Hits {
				if i > 0 && res.Hits[i-1].Score < hit.Score {
					t.Errorf("hits not sorted by score at %d", i)
				}
				want, ok, err := idx.ScoreOf(hit.PK)
				if err != nil || !ok {
					t.Fatalf("ScoreOf(%d): %v %v", hit.PK, ok, err)
				}
				if math.Abs(hit.Score-want) > 1e-9 {
					t.Errorf("hit %d score = %g, view score = %g", hit.PK, hit.Score, want)
				}
				if hit.Row == nil {
					t.Errorf("LoadRows did not populate the row for %d", hit.PK)
				}
			}
		})
	}
}

func TestStructuredUpdateChangesRanking(t *testing.T) {
	engine, db := newArchiveEngine(t, 200)
	idx, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", IndexOptions{
		Method: MethodChunk,
		Spec:   workload.ArchiveSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Search(SearchRequest{Query: "golden gate", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) < 2 {
		t.Skip("query too selective for this seed")
	}
	// Promote the last-ranked hit with a massive visit spike.
	target := res.Hits[len(res.Hits)-1].PK
	stats, _ := db.Table("Statistics")
	row, err := stats.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := stats.Update(target, map[string]relation.Value{
		"nVisit": relation.Int(row[2].I + 10_000_000),
	}); err != nil {
		t.Fatal(err)
	}
	if err := idx.MaintenanceErr(); err != nil {
		t.Fatal(err)
	}
	res2, err := idx.Search(SearchRequest{Query: "golden gate", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Hits[0].PK != target {
		t.Errorf("after the flash crowd, movie %d should rank first; got %d", target, res2.Hits[0].PK)
	}
}

func TestDocumentLifecycleThroughEngine(t *testing.T) {
	engine, db := newArchiveEngine(t, 100)
	idx, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", IndexOptions{
		Method: MethodChunk,
		Spec:   workload.ArchiveSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	movies, _ := db.Table("Movies")

	// Insert a new movie with a distinctive term.
	newID := int64(100000)
	if err := movies.Insert(relation.Row{
		relation.Int(newID), relation.Str("Zeppelin Voyage"), relation.Str("zeppelin crossing the golden gate"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := idx.MaintenanceErr(); err != nil {
		t.Fatal(err)
	}
	res, err := idx.Search(SearchRequest{Query: "zeppelin", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].PK != newID {
		t.Fatalf("inserted movie not found: %+v", res.Hits)
	}

	// Content update: the description changes and loses the term.
	if err := movies.Update(newID, map[string]relation.Value{
		"desc": relation.Str("dirigible crossing the golden gate"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := idx.MaintenanceErr(); err != nil {
		t.Fatal(err)
	}
	res, err = idx.Search(SearchRequest{Query: "zeppelin", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Errorf("document still found under removed term: %+v", res.Hits)
	}
	res, err = idx.Search(SearchRequest{Query: "dirigible", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].PK != newID {
		t.Errorf("document not found under added term: %+v", res.Hits)
	}

	// Delete the movie; it must disappear from results.
	if err := movies.Delete(newID); err != nil {
		t.Fatal(err)
	}
	if err := idx.MaintenanceErr(); err != nil {
		t.Fatal(err)
	}
	res, err = idx.Search(SearchRequest{Query: "dirigible", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Errorf("deleted movie still returned: %+v", res.Hits)
	}
}

// TestEngineDeleteUncountsTerms deletes documents through the relation and
// checks that every affected term's document frequency equals the number of
// live rows holding it, and that the short lists shed the deleted
// document's postings: for a built movie promoted by a visit spike, and for
// an inserted movie whose text was edited before the delete.
func TestEngineDeleteUncountsTerms(t *testing.T) {
	for _, method := range []MethodKind{MethodChunk, MethodScoreThreshold} {
		t.Run(string(method), func(t *testing.T) {
			engine, db := newArchiveEngine(t, 100)
			idx, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", IndexOptions{
				Method: method,
				Spec:   workload.ArchiveSpec(),
			})
			if err != nil {
				t.Fatal(err)
			}
			movies, _ := db.Table("Movies")
			descCol, _ := movies.Schema().ColumnIndex("desc")
			check := func(step string, terms []string, entries int) {
				t.Helper()
				if err := idx.MaintenanceErr(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				live := map[string]int64{}
				if err := movies.Scan(func(r relation.Row) bool {
					for _, term := range text.DistinctTerms(engine.analyzer.Tokenize(r[descCol].S)) {
						live[term]++
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				numDocs, df, err := idx.TermStats(strings.Join(terms, " "))
				if err != nil {
					t.Fatal(err)
				}
				if numDocs != int64(movies.Len()) {
					t.Errorf("%s: numDocs = %d, want %d live rows", step, numDocs, movies.Len())
				}
				for i, term := range text.DistinctTerms(terms) {
					if df[i] != live[term] {
						t.Errorf("%s: df(%q) = %d, want %d live rows", step, term, df[i], live[term])
					}
				}
				if got := idx.Stats().ShortListEntries; got != entries {
					t.Errorf("%s: %d short-list entries, want %d", step, got, entries)
				}
			}

			// The lowest-scored built movie, promoted by a visit spike, then
			// deleted.  Under Score-Threshold the spike moves its postings to
			// the short lists, which the delete must purge.
			var low int64
			lowScore := math.Inf(1)
			for pk := int64(1); pk <= 100; pk++ {
				if s, err := idx.view.Compute(pk); err == nil && s < lowScore {
					low, lowScore = pk, s
				}
			}
			built, err := movies.Get(low)
			if err != nil {
				t.Fatal(err)
			}
			builtTerms := engine.analyzer.Tokenize(built[descCol].S)
			entries := idx.Stats().ShortListEntries
			stats, _ := db.Table("Statistics")
			if err := stats.Update(low, map[string]relation.Value{"nVisit": relation.Int(10_000_000)}); err != nil {
				t.Fatal(err)
			}
			if method == MethodScoreThreshold && idx.Stats().ShortListEntries == entries {
				t.Fatal("the visit spike wrote no short-list postings")
			}
			if err := movies.Delete(low); err != nil {
				t.Fatal(err)
			}
			check("built movie deleted", builtTerms, entries)

			// An inserted movie edited before its delete.
			const newID = 100000
			if err := movies.Insert(relation.Row{relation.Int(newID), relation.Str("Airship"), relation.Str("zeppelin crossing")}); err != nil {
				t.Fatal(err)
			}
			if err := movies.Update(newID, map[string]relation.Value{"desc": relation.Str("dirigible crossing")}); err != nil {
				t.Fatal(err)
			}
			terms := []string{"zeppelin", "dirigible", "crossing"}
			check("inserted movie edited", terms, idx.Stats().ShortListEntries)
			if err := movies.Delete(newID); err != nil {
				t.Fatal(err)
			}
			check("inserted movie deleted", terms, entries)
		})
	}
}

func TestSearchValidation(t *testing.T) {
	engine, _ := newArchiveEngine(t, 50)
	idx, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", IndexOptions{Spec: workload.ArchiveSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Search(SearchRequest{Query: "golden", K: 0}); err == nil {
		t.Error("search with k=0 accepted")
	}
	if _, err := idx.Search(SearchRequest{Query: "!!!", K: 5}); err == nil {
		t.Error("search with no indexable terms accepted")
	}
	if _, err := idx.Search(SearchRequest{Query: "golden", K: 5, WithTermScores: true}); err == nil {
		t.Error("term-score search on an SVR-only method accepted")
	}
}

func TestCombinedRankingThroughEngine(t *testing.T) {
	engine, _ := newArchiveEngine(t, 200)
	idx, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", IndexOptions{
		Method: MethodChunkTermScore,
		Spec:   workload.ArchiveSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := idx.Search(SearchRequest{Query: "golden gate", K: 10})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := idx.Search(SearchRequest{Query: "golden gate", K: 10, WithTermScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Hits) == 0 || len(combined.Hits) == 0 {
		t.Fatal("no results")
	}
	// Combined scores include a non-negative term-score contribution, so for
	// the same document the combined score is at least the SVR score.
	svr := map[int64]float64{}
	for _, h := range plain.Hits {
		svr[h.PK] = h.Score
	}
	for _, h := range combined.Hits {
		if s, ok := svr[h.PK]; ok && h.Score < s-1e-9 {
			t.Errorf("combined score %g below SVR score %g for doc %d", h.Score, s, h.PK)
		}
	}
	// Results must be sorted.
	if !sort.SliceIsSorted(combined.Hits, func(i, j int) bool { return combined.Hits[i].Score >= combined.Hits[j].Score }) {
		t.Error("combined results not sorted")
	}
}

func TestScoreMethodThroughEngine(t *testing.T) {
	// Small database: the Score method rewrites every posting of a document
	// on each update, so keep the build tiny.
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 4096))
	params := workload.DefaultArchiveParams()
	params.NumMovies = 60
	params.WordsPerDesc = 12
	if _, err := workload.BuildArchiveDB(db, params); err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(db, Options{})
	idx, err := engine.CreateTextIndex("movies_desc", "Movies", "desc", IndexOptions{
		Method: MethodScore,
		Spec:   workload.ArchiveSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := db.Table("Statistics")
	row, err := stats.Get(30)
	if err != nil {
		t.Fatal(err)
	}
	if err := stats.Update(30, map[string]relation.Value{"nVisit": relation.Int(row[2].I + 5_000_000)}); err != nil {
		t.Fatal(err)
	}
	if err := idx.MaintenanceErr(); err != nil {
		t.Fatal(err)
	}
	res, err := idx.Search(SearchRequest{Query: "golden", K: 3, Disjunctive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) > 0 {
		want, _, _ := idx.ScoreOf(res.Hits[0].PK)
		if math.Abs(res.Hits[0].Score-want) > 1e-9 {
			t.Errorf("top hit score %g does not match view score %g", res.Hits[0].Score, want)
		}
	}
	if got := idx.Stats().LongListPostingsWritten; got == 0 {
		t.Error("Score method reported no long-list posting rewrites after an update")
	}
	if idx.View().Spec().Agg == nil {
		t.Error("view spec lost its aggregator")
	}
	_ = view.Spec{}
}

// TestEngineCloseAuditsPins drives the full update and search machinery —
// including the B+-tree patch fast path on every score change — and then
// checks Close: it must flush, pass the buffer pool's pin audit, and leave
// the page file closed.
func TestEngineCloseAuditsPins(t *testing.T) {
	engine, db := newArchiveEngine(t, 60)
	ti, err := engine.CreateTextIndex("movies", "Movies", "desc", IndexOptions{
		Method: MethodChunk,
		Spec:   workload.ArchiveSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := db.Table("Statistics")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mID := int64(i%60 + 1)
		row, err := stats.Get(mID)
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.Update(mID, map[string]relation.Value{
			"nVisit": relation.Int(row[2].I + int64(50+i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ti.Search(SearchRequest{Query: "golden gate", K: 5, LoadRows: true}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The pool's backing file is closed: once the cache is dropped, page
	// reads must fail instead of silently serving stale frames.
	if err := engine.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Pool().Get(0); err == nil {
		t.Error("Get after Close succeeded, want error")
	}
}

// TestEngineCloseReportsPinLeak verifies the audit actually bites: a pin
// taken and never released must surface as a Close error.
func TestEngineCloseReportsPinLeak(t *testing.T) {
	engine, _ := newArchiveEngine(t, 20)
	if _, err := engine.Pool().Get(0); err != nil {
		t.Fatal(err)
	}
	// Deliberately no Release.
	if err := engine.Close(); err == nil {
		t.Error("Close with a leaked pin returned nil, want error")
	}
}

// TestGroupCommitCoalesces checks the ApplyBatch group commit: concurrent
// batches produce strictly fewer pagefile commits than batches, and every
// batch's writes are durable (visible after reopen) once ApplyBatch
// returns.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/group.svrdb"
	e, err := Open(path, OpenOptions{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DB().CreateTable(relation.Schema{
		Name: "KV",
		Columns: []relation.Column{
			{Name: "k", Kind: relation.KindInt64},
			{Name: "v", Kind: relation.KindInt64},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// One committed batch so the table exists on disk before the storm.
	if err := e.ApplyBatch(func() error {
		tbl, err := e.DB().Table("KV")
		if err != nil {
			return err
		}
		return tbl.Insert(relation.Row{relation.Int(-1), relation.Int(0)})
	}); err != nil {
		t.Fatal(err)
	}

	// Deterministic fan-in: a blocker batch holds the batch lock while
	// `writers` further ApplyBatch callers queue up behind it (visible via
	// the commit-waiter counter), then the blocker is released.  The
	// blocker and every writer except the last defer their commit to the
	// next caller, so the whole group must land in exactly one pagefile
	// commit.
	const writers = 8
	before := e.Pool().File().Stats().Commits
	blockerIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, writers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[writers] = e.ApplyBatch(func() error {
			close(blockerIn)
			<-release
			tbl, err := e.DB().Table("KV")
			if err != nil {
				return err
			}
			return tbl.Insert(relation.Row{relation.Int(1000), relation.Int(0)})
		})
	}()
	<-blockerIn
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := e.ApplyBatch(func() error {
				tbl, err := e.DB().Table("KV")
				if err != nil {
					return err
				}
				return tbl.Insert(relation.Row{relation.Int(int64(w)), relation.Int(int64(w))})
			})
			errs[w] = err
		}(w)
	}
	// Wait until every writer is queued on the batch lock, so the blocker
	// observes them and defers its commit.
	for e.commitWaiters.Load() < writers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	commits := e.Pool().File().Stats().Commits - before
	if commits != 1 {
		t.Fatalf("group commit: %d commits for %d concurrent batches, want 1", commits, writers+1)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Every batch that returned is durable.
	re, err := Open(path, OpenOptions{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	tbl, err := re.DB().Table("KV")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != writers+2 {
		t.Fatalf("reopened table holds %d rows, want %d", got, writers+2)
	}
}
