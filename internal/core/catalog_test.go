package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"svrdb/internal/relation"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

func docsOpenOptions() OpenOptions {
	return OpenOptions{Specs: map[string]view.Spec{"docs": workload.DocsSpec()}, PageSize: pagefile.DefaultDiskPageSize}
}

// openDurableDocs opens a fresh durable engine at path and loads the corpus
// into its Docs table.
func openDurableDocs(t *testing.T, path string, corpus *workload.Corpus) *Engine {
	t.Helper()
	e, err := Open(path, docsOpenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.LoadDocsTable(e.DB(), corpus, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

func createDocsIndex(t *testing.T, e *Engine, kind MethodKind) {
	t.Helper()
	if _, err := e.CreateTextIndex("idx-"+string(kind), "Docs", "body", IndexOptions{
		Method: kind, SpecName: "docs", MinChunkSize: 8,
	}); err != nil {
		t.Fatalf("create %s index: %v", kind, err)
	}
}

// requireReopenEqualsLive opens a copy of the live engine's file and requires
// every table and method state the copy restores to be deeply equal to the
// live one's (the Score view has no state of its own: MethodAnchor.Score is
// the materialized view).
func requireReopenEqualsLive(t *testing.T, live *Engine, path, step string) {
	t.Helper()
	copyPath := path + ".copy"
	cloneEngineFile(t, path, copyPath)
	re, err := Open(copyPath, docsOpenOptions())
	if err != nil {
		t.Fatalf("%s: reopen: %v", step, err)
	}
	defer re.Close()

	if want, got := live.DB().TableNames(), re.DB().TableNames(); !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: tables live %v, reopened %v", step, want, got)
	}
	for _, name := range live.DB().TableNames() {
		lt, _ := live.DB().Table(name)
		rt, err := re.DB().Table(name)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if want, got := lt.State(), rt.State(); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: table %q state differs:\nlive     %+v\nreopened %+v", step, name, want, got)
		}
	}
	if want, got := live.TextIndexNames(), re.TextIndexNames(); !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: indexes live %v, reopened %v", step, want, got)
	}
	for _, name := range live.TextIndexNames() {
		lt, _ := live.TextIndex(name)
		rt, err := re.TextIndex(name)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, got := lt.Method().State(), rt.Method().State()
		if !reflect.DeepEqual(want.MethodAnchor, got.MethodAnchor) {
			t.Errorf("%s: index %q anchor differs:\nlive     %+v\nreopened %+v", step, name, want.MethodAnchor, got.MethodAnchor)
		}
		if !reflect.DeepEqual(want.MethodDict, got.MethodDict) {
			t.Errorf("%s: index %q dictionary differs (a mutation path that does not bump DictGen?)", step, name)
		}
	}
}

// TestCatalogReopenEqualsLive is the guard against a missed generation bump:
// random score updates, inserts, deletes, content edits, merges and index
// create/drop run over all six methods, and after every commit a reopened
// copy must restore exactly the state the live engine holds.
func TestCatalogReopenEqualsLive(t *testing.T) {
	params := workload.DefaultParams()
	params.NumDocs = 300
	params.TermsPerDoc = 12
	params.VocabSize = 150
	corpus := workload.Generate(params)
	path := filepath.Join(t.TempDir(), "docs.svrdb")
	e := openDurableDocs(t, path, corpus)
	for _, kind := range AllMethods() {
		createDocsIndex(t, e, kind)
	}
	requireReopenEqualsLive(t, e, path, "after build")

	rng := rand.New(rand.NewSource(14))
	tbl, err := e.DB().Table("Docs")
	if err != nil {
		t.Fatal(err)
	}
	var live []int64
	nextDoc := int64(0)
	if err := tbl.Scan(func(row relation.Row) bool {
		live = append(live, row[0].I)
		nextDoc = max(nextDoc, row[0].I+1)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	randomBody := func() string {
		words := make([]string, 3+rng.Intn(8))
		for i := range words {
			words[i] = fmt.Sprintf("w%d", rng.Intn(200))
		}
		return strings.Join(words, " ")
	}
	batch := func(fn func() error) {
		t.Helper()
		if err := e.ApplyBatch(fn); err != nil {
			t.Fatal(err)
		}
	}

	dropped := MethodKind("")
	for step := 0; step < 40; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 4:
			what = "score updates"
			batch(func() error {
				for i := 0; i < 20; i++ {
					pk := live[rng.Intn(len(live))]
					if err := tbl.Update(pk, map[string]relation.Value{"score": relation.Float(rng.Float64() * 100000)}); err != nil {
						return err
					}
				}
				return nil
			})
		case op < 6:
			what = "inserts"
			batch(func() error {
				for i := 0; i < 3; i++ {
					row := relation.Row{relation.Int(nextDoc), relation.Str(randomBody()), relation.Float(rng.Float64() * 100000)}
					if err := tbl.Insert(row); err != nil {
						return err
					}
					live = append(live, nextDoc)
					nextDoc++
				}
				return nil
			})
		case op < 7:
			what = "deletes"
			batch(func() error {
				for i := 0; i < 2; i++ {
					j := rng.Intn(len(live))
					if err := tbl.Delete(live[j]); err != nil {
						return err
					}
					live = append(live[:j], live[j+1:]...)
				}
				return nil
			})
		case op < 8:
			what = "content edits"
			batch(func() error {
				pk := live[rng.Intn(len(live))]
				return tbl.Update(pk, map[string]relation.Value{"body": relation.Str(randomBody())})
			})
		case op < 9:
			what = "merge"
			names := e.TextIndexNames()
			ti, err := e.TextIndex(names[rng.Intn(len(names))])
			if err != nil {
				t.Fatal(err)
			}
			if err := ti.MergeShortLists(); err != nil {
				t.Fatal(err)
			}
			// A merge commits with the next batch; an empty one does it now.
			batch(func() error { return nil })
		default:
			if dropped == "" {
				dropped = AllMethods()[rng.Intn(len(AllMethods()))]
				what = "drop " + string(dropped)
				if err := e.DropTextIndex("idx-" + string(dropped)); err != nil {
					t.Fatal(err)
				}
			} else {
				what = "create " + string(dropped)
				createDocsIndex(t, e, dropped)
				dropped = ""
			}
		}
		requireReopenEqualsLive(t, e, path, fmt.Sprintf("step %d (%s)", step, what))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScoreBatchCommitBudget pins what a score-only batch may cost a durable
// engine: no dictionary chain rewritten, at most two catalog pages written,
// a bounded number of data pages, and a WAL record far below the page images
// of the pages it touched.
func TestScoreBatchCommitBudget(t *testing.T) {
	const batchRows = 128
	params := workload.DefaultParams()
	params.NumDocs = 2000
	params.TermsPerDoc = 60
	params.VocabSize = 1500
	corpus := workload.Generate(params)
	path := filepath.Join(t.TempDir(), "docs.svrdb")
	e := openDurableDocs(t, path, corpus)
	defer e.Close()
	createDocsIndex(t, e, MethodChunk)
	createDocsIndex(t, e, MethodChunkTermScore)
	tbl, err := e.DB().Table("Docs")
	if err != nil {
		t.Fatal(err)
	}
	up := workload.DefaultUpdateParams()
	up.NumUpdates = 6 * batchRows
	updates := workload.GenerateUpdates(corpus, up)
	apply := func(us []workload.ScoreUpdate) {
		t.Helper()
		if err := e.ApplyBatch(func() error { return workload.ApplyScoreUpdates(tbl, us) }); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up batches populate the short lists and settle the free list.
	for len(updates) > batchRows {
		apply(updates[:batchRows])
		updates = updates[batchRows:]
	}

	file := e.Pool().File()
	fs0, ps0, rewrites0 := file.Stats(), e.Pool().Stats(), e.dictRewrites.Load()
	apply(updates)
	fs1, ps1 := file.Stats(), e.Pool().Stats()

	if got := e.dictRewrites.Load() - rewrites0; got != 0 {
		t.Errorf("score-only batch rewrote %d dictionary chains, want 0", got)
	}
	flushes := ps1.Flushes - ps0.Flushes
	if catalogWrites := (fs1.Writes - fs0.Writes) - flushes; catalogWrites > 2 {
		t.Errorf("score-only batch wrote %d catalog pages beside %d pool flushes, want at most 2", catalogWrites, flushes)
	}
	// Each index writes the batch's scores once, into its Score table; this
	// fixture measures 139 flushes.  A second doc → score tree per index (the
	// Score view kept one until catalog version 3) made it 171.
	if flushes > 146 {
		t.Errorf("score-only batch flushed %d pool pages, budget 146", flushes)
	}
	if got := fs1.Fsyncs - fs0.Fsyncs; got != 2 {
		t.Errorf("commit issued %d fsyncs, want 2", got)
	}
	// A page image per flushed page is what a full-image log costs (570 KB
	// here); the delta log measures 70 KB on this fixture.
	walBytes := fs1.WALBytes - fs0.WALBytes
	const budget = 160_000
	t.Logf("WAL %d bytes for %d rows (%d pool flushes, %d bytes as page images)", walBytes, batchRows, flushes, flushes*uint64(file.PageSize()))
	if walBytes > budget {
		t.Errorf("score-only batch logged %d WAL bytes, budget %d", walBytes, budget)
	}
	if anchor := e.anchorBytes.Load(); anchor <= 0 || anchor > 2*int64(file.PageSize()-chainHeaderSize) {
		t.Errorf("catalog anchor is %d bytes, want within two pages", anchor)
	}
}
