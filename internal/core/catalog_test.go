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

// TestRepeatedMergeReusesPages merges a durable Chunk-TermScore index, whose
// long and fancy lists share packed pages, three times with score updates in
// between.  Each merge retires the previous generation's pages as one set,
// so the next merge builds into them: the file stops growing after the first
// round, the merges retire no page twice, and Close's pin audit passes.
func TestRepeatedMergeReusesPages(t *testing.T) {
	params := workload.DefaultParams()
	params.NumDocs = 600
	params.TermsPerDoc = 12
	params.VocabSize = 300
	corpus := workload.Generate(params)
	path := filepath.Join(t.TempDir(), "docs.svrdb")
	e := openDurableDocs(t, path, corpus)
	createDocsIndex(t, e, MethodChunkTermScore)
	ti, err := e.TextIndex("idx-" + string(MethodChunkTermScore))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.DB().Table("Docs")
	if err != nil {
		t.Fatal(err)
	}
	up := workload.DefaultUpdateParams()
	up.NumUpdates = 200
	updates := workload.GenerateUpdates(corpus, up)
	file := e.Pool().File()
	var pages []uint64
	for round := 0; round < 3; round++ {
		us := updates[round*len(updates)/3 : (round+1)*len(updates)/3]
		if err := e.ApplyBatch(func() error { return workload.ApplyScoreUpdates(tbl, us) }); err != nil {
			t.Fatal(err)
		}
		if err := ti.MergeShortLists(); err != nil {
			t.Fatalf("merge round %d: %v", round, err)
		}
		// A merge commits with the next batch; an empty one does it now.
		if err := e.ApplyBatch(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := ti.MaintenanceErr(); err != nil {
			t.Fatalf("merge round %d: %v", round, err)
		}
		pages = append(pages, file.NumPages())
	}
	if pages[1] > pages[0] || pages[2] > pages[0] {
		t.Errorf("file pages after each merge round = %v: later rounds grew the file instead of reusing the retired generation", pages)
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close (includes pin audit): %v", err)
	}
}

// TestScoreBatchCommitBudget pins what a score-only batch may cost a durable
// engine: no dictionary chain rewritten, at most two catalog pages logged, a
// bounded number of data pages, one fsync, and a WAL record far below the
// page images of the pages it touched.
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
	// Every flushed page is logged; what else the commit logs is catalog.
	if logged := fs1.LoggedPages - fs0.LoggedPages; logged < flushes || logged-flushes > 2 {
		t.Errorf("score-only batch logged %d pages beside %d pool flushes, want at most 2 catalog pages", logged, flushes)
	}
	// Each index writes the batch's scores once, into its Score table, and
	// the Docs table writes only its row tree of fixed-width columns; this
	// fixture measures 57 flushes.  Midpoint leaf splits, whose left halves
	// ascending inserts never fill again, made it 68; a Docs row stored
	// whole in one tree 137; and a second doc → score tree per index (the
	// Score view kept one until catalog version 3) 171.
	if flushes > 60 {
		t.Errorf("score-only batch flushed %d pool pages, budget 60", flushes)
	}
	// No-force: the commit is one WAL append and its fsync; the pages reach
	// the data file at a later checkpoint.
	if got := fs1.Fsyncs - fs0.Fsyncs; got != 1 || fs1.Checkpoints != fs0.Checkpoints {
		t.Errorf("commit issued %d fsyncs and %d checkpoints, want 1 and 0", got, fs1.Checkpoints-fs0.Checkpoints)
	}
	// A page image per flushed page is what a full-image log costs (233 KB
	// here); the delta log measures 13.8 KB.  Each copy-on-write copy goes
	// back to the page its node held one version earlier, which it reserved
	// (pagefile.File.Reserve), and logs its delta from that page.  The
	// batch's two leaf splits each take some node's reserved predecessor,
	// whose next copy then grows the file and is logged against zeros
	// (≈ 1.2 KB).  A page taken from the free list is logged by its non-zero
	// bytes when those are fewer than its delta from the page's old bytes.
	// The budget leaves room over that and is a tenth of the full-image
	// cost.
	walBytes := fs1.WALBytes - fs0.WALBytes
	const budget = 24_000
	t.Logf("WAL %d bytes for %d rows (%d pool flushes, %d bytes as page images): %d to preferred pages, %d elsewhere, %d in place, %d past the end",
		walBytes, batchRows, flushes, flushes*uint64(file.PageSize()),
		fs1.WALBytesPreferred-fs0.WALBytesPreferred, fs1.WALBytesElsewhere-fs0.WALBytesElsewhere,
		fs1.WALBytesInPlace-fs0.WALBytesInPlace, fs1.WALBytesPastEnd-fs0.WALBytesPastEnd)
	if walBytes > budget {
		t.Errorf("score-only batch logged %d WAL bytes, budget %d", walBytes, budget)
	}
	if anchor := e.anchorBytes.Load(); anchor <= 0 || anchor > 2*int64(file.PageSize()-chainHeaderSize) {
		t.Errorf("catalog anchor is %d bytes, want within two pages", anchor)
	}
}
