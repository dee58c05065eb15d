package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

// archiveSpecRegistry maps the name the indexes record in the catalog to the
// archive score spec; specs hold function values, so the registry is built
// fresh per call.
func archiveSpecRegistry() map[string]view.Spec {
	return map[string]view.Spec{"archive": workload.ArchiveSpec()}
}

// crashQueries are the deterministic probes whose results define "the
// committed state" for recovery comparisons.  The terms come from the
// archive workload vocabulary.
var crashQueries = []SearchRequest{
	{Query: "golden gate", K: 10},
	{Query: "san francisco", K: 10, Disjunctive: true},
}

// searchSnapshot serializes every index's results for every crash query into
// one string, scores at full float64 precision, so recovered engines can be
// compared byte for byte.
func searchSnapshot(t *testing.T, e *Engine) string {
	t.Helper()
	names := e.TextIndexNames()
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		ti, err := e.TextIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := ti.MaintenanceErr(); err != nil {
			t.Fatalf("index %q maintenance: %v", name, err)
		}
		for _, q := range crashQueries {
			res, err := ti.Search(q)
			if err != nil {
				t.Fatalf("index %q query %q: %v", name, q.Query, err)
			}
			fmt.Fprintf(&sb, "%s|%s:", name, q.Query)
			for _, h := range res.Hits {
				fmt.Fprintf(&sb, " %d=%.17g", h.PK, h.Score)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// createAllMethodIndexes creates one text index per method, named after it.
func createAllMethodIndexes(t *testing.T, e *Engine) {
	t.Helper()
	for _, m := range AllMethods() {
		if _, err := e.CreateTextIndex("idx-"+string(m), "Movies", "desc", IndexOptions{
			Method:   m,
			Spec:     workload.ArchiveSpec(),
			SpecName: "archive",
		}); err != nil {
			t.Fatalf("create %s index: %v", m, err)
		}
	}
}

func durableOpts() OpenOptions {
	return OpenOptions{Specs: archiveSpecRegistry()}
}

// buildDurableArchive creates a durable engine at path with the archive
// workload loaded and all six method indexes built, then closes it cleanly.
func buildDurableArchive(t *testing.T, path string, nMovies int) {
	t.Helper()
	e, err := Open(path, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	params := workload.DefaultArchiveParams()
	params.NumMovies = nMovies
	if _, err := workload.BuildArchiveDB(e.DB(), params); err != nil {
		t.Fatal(err)
	}
	createAllMethodIndexes(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func copyDataFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if errors.Is(err, os.ErrNotExist) {
		os.Remove(dst)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
}

// cloneEngineFile copies a durable engine's data file and WAL sidecar.
func cloneEngineFile(t *testing.T, src, dst string) {
	t.Helper()
	copyDataFile(t, src, dst)
	copyDataFile(t, pagefile.WALPath(src), pagefile.WALPath(dst))
}

// TestDurableReopenAllMethods is the round-trip acceptance test: build, index
// with all six methods, mutate in a batch, close, reopen, and require every
// method's query results to match byte for byte — then keep writing through
// the reopened engine and survive a second reopen.
func TestDurableReopenAllMethods(t *testing.T) {
	const nMovies = 40
	path := filepath.Join(t.TempDir(), "archive.svrdb")
	e, err := Open(path, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	params := workload.DefaultArchiveParams()
	params.NumMovies = nMovies
	if _, err := workload.BuildArchiveDB(e.DB(), params); err != nil {
		t.Fatal(err)
	}
	createAllMethodIndexes(t, e)
	if err := e.ApplyBatch(applyArchiveMutations(t, e.DB(), nMovies, 60)); err != nil {
		t.Fatal(err)
	}
	want := searchSnapshot(t, e)

	// Cross-check against a purely in-memory engine fed the same build and
	// mutations: durability must not change query semantics.
	mem, memDB := newArchiveEngine(t, nMovies)
	createAllMethodIndexes(t, mem)
	if err := mem.ApplyBatch(applyArchiveMutations(t, memDB, nMovies, 60)); err != nil {
		t.Fatal(err)
	}
	if got := searchSnapshot(t, mem); got != want {
		t.Errorf("durable engine results diverge from in-memory engine:\n%s\nvs\n%s", want, got)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, durableOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := searchSnapshot(t, re); got != want {
		t.Errorf("results after reopen diverge:\nbefore close:\n%s\nafter reopen:\n%s", want, got)
	}

	// The reopened engine must keep absorbing writes...
	if err := re.ApplyBatch(applyArchiveMutations(t, re.DB(), nMovies, 30)); err != nil {
		t.Fatal(err)
	}
	want2 := searchSnapshot(t, re)
	if want2 == want {
		t.Fatal("second mutation batch did not change any scores; the follow-up reopen check is vacuous")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// ...and those writes must survive another reopen.
	re2, err := Open(path, durableOpts())
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer re2.Close()
	if got := searchSnapshot(t, re2); got != want2 {
		t.Errorf("post-reopen writes lost on second reopen:\n%s\nvs\n%s", want2, got)
	}
}

// TestOpenMissingSpecFails pins the error path: reopening a file whose
// catalog names a spec absent from the registry must fail with a clear
// message, not restore a half-wired index.
func TestOpenMissingSpecFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "archive.svrdb")
	buildDurableArchive(t, path, 10)
	_, err := Open(path, OpenOptions{})
	if err == nil {
		t.Fatal("Open succeeded without the spec registry")
	}
	if !strings.Contains(err.Error(), "archive") {
		t.Errorf("error does not name the missing spec: %v", err)
	}
}

// TestCrashDuringEpochSwapServesPreSwapSnapshot pins the boundary between
// the in-memory publish and the durable publish: a write batch swaps every
// index's epoch (the snapshot readers see) before the WAL commit makes the
// batch durable.  If the process dies between the swap and the commit, the
// swap must not count — the WAL commit point is the only publish that
// survives a crash, so the reopened engine must serve the pre-swap state
// byte for byte.
func TestCrashDuringEpochSwapServesPreSwapSnapshot(t *testing.T) {
	const nMovies = 12
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildDurableArchive(t, template, nMovies)

	pre := func() string {
		p := filepath.Join(dir, "pre.svrdb")
		cloneEngineFile(t, template, p)
		e, err := Open(p, durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		return searchSnapshot(t, e)
	}()

	// Fail the first file write after open: every write the batch issues
	// before that point — base-table mutations, index flushes, the epoch
	// swaps themselves — is in-memory, so the fault lands exactly between
	// the in-memory publish and the durable commit.
	work := filepath.Join(dir, "work.svrdb")
	cloneEngineFile(t, template, work)
	fi := pagefile.NewFaultInjector(pagefile.FaultPlan{FailWrite: 1})
	file, err := pagefile.Open(work, pagefile.WithFaults(fi))
	if err != nil {
		t.Fatal(err)
	}
	e, err := openFromFile(file, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	epochsBefore := map[string]uint64{}
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		epochsBefore[name] = ti.Stats().Epoch
	}
	if err := e.ApplyBatch(applyArchiveMutations(t, e.DB(), nMovies, 10)); err == nil {
		t.Fatal("ApplyBatch reported success despite the injected commit fault")
	}
	if !fi.Tripped() {
		t.Fatal("the commit never reached the faulted write site")
	}
	// The batch must have swapped epochs in memory before the commit fault:
	// that is the window this test exists to crash in.
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := ti.Stats().Epoch; got <= epochsBefore[name] {
			t.Errorf("index %q epoch did not advance before the commit fault (%d -> %d); the crash landed before the swap", name, epochsBefore[name], got)
		}
	}
	file.Close()

	re, err := Open(work, durableOpts())
	if err != nil {
		t.Fatalf("clean reopen after crash: %v", err)
	}
	got := searchSnapshot(t, re)
	if err := re.Close(); err != nil {
		t.Errorf("close after recovery: %v", err)
	}
	if got != pre {
		t.Errorf("crash between epoch swap and WAL commit must recover the pre-swap snapshot:\nwant\n%s\ngot\n%s", pre, got)
	}
}

// TestCrashRecoveryMatrixEngine is the tentpole acceptance test: a committed
// archive database absorbs one mutation batch and closes its file while a
// deterministic fault kills the process at every write, torn-write and fsync
// site of the commit protocol and of the checkpoint that closing writes (a
// commit alone writes no data page).  After each crash the file is reopened cleanly and all six
// methods' query results must match either the pre-batch or the post-batch
// committed state byte for byte — and if ApplyBatch reported success, the
// post state is mandatory — and the pages the catalog reaches and the
// rebuilt free list must split the file between them.  The batch's WAL record is mostly byte-range
// deltas over committed pages, so the last leg crashes the replay itself: a
// torn write at every write site of the recovering Open must still leave a
// file the next Open rolls forward to the post state.
func TestCrashRecoveryMatrixEngine(t *testing.T) {
	// 40 movies and 40 rounds make the batch's commit and checkpoint 57
	// writes (the WAL append, 55 pages, the header) and its recovery 56.
	const nMovies = 40
	const rounds = 40
	dir := t.TempDir()
	template := filepath.Join(dir, "template.svrdb")
	buildDurableArchive(t, template, nMovies)

	mutate := func(e *Engine) error {
		return e.ApplyBatch(applyArchiveMutations(t, e.DB(), nMovies, rounds))
	}

	// Reference snapshots: the committed state before and after the batch.
	pre := func() string {
		p := filepath.Join(dir, "pre.svrdb")
		cloneEngineFile(t, template, p)
		e, err := Open(p, durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		return searchSnapshot(t, e)
	}()
	post := func() string {
		p := filepath.Join(dir, "post.svrdb")
		cloneEngineFile(t, template, p)
		e, err := Open(p, durableOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := mutate(e); err != nil {
			t.Fatal(err)
		}
		return searchSnapshot(t, e)
	}()
	if pre == post {
		t.Fatal("mutation batch did not change any query results; the matrix would prove nothing")
	}

	// Counting run: learn the fault-site counts.  Reads are counted up to the
	// end of Open (the restore path); writes and syncs across the batch
	// commit and the checkpoint that closing the file writes.
	countPath := filepath.Join(dir, "count.svrdb")
	cloneEngineFile(t, template, countPath)
	counter := pagefile.NewFaultInjector(pagefile.FaultPlan{})
	cfile, err := pagefile.Open(countPath, pagefile.WithFaults(counter))
	if err != nil {
		t.Fatal(err)
	}
	ce, err := openFromFile(cfile, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	openReads := counter.Reads()
	if err := mutate(ce); err != nil {
		t.Fatal(err)
	}
	if err := cfile.Close(); err != nil {
		t.Fatal(err)
	}
	writes, syncs := counter.Writes(), counter.Syncs()
	if writes < 3 || syncs < 2 || openReads < 2 {
		t.Fatalf("counting run saw %d writes, %d syncs, %d open reads; too few for a meaningful matrix", writes, syncs, openReads)
	}

	type site struct {
		name string
		plan pagefile.FaultPlan
	}
	var sites []site
	for i := 1; i <= writes; i++ {
		sites = append(sites,
			site{fmt.Sprintf("write-%d", i), pagefile.FaultPlan{FailWrite: i}},
			site{fmt.Sprintf("torn-write-%d", i), pagefile.FaultPlan{FailWrite: i, TornWrite: true}})
	}
	for i := 1; i <= syncs; i++ {
		sites = append(sites, site{fmt.Sprintf("sync-%d", i), pagefile.FaultPlan{FailSync: i}})
	}
	for i := 1; i <= openReads; i++ {
		sites = append(sites, site{fmt.Sprintf("read-%d", i), pagefile.FaultPlan{FailRead: i}})
	}

	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) {
			work := filepath.Join(dir, "work.svrdb")
			cloneEngineFile(t, template, work)
			fi := pagefile.NewFaultInjector(s.plan)
			file, err := pagefile.Open(work, pagefile.WithFaults(fi))

			batchRan, batchCommitted := false, false
			if err == nil {
				e, openErr := openFromFile(file, durableOpts())
				if openErr == nil {
					batchRan = true
					batchCommitted = mutate(e) == nil
				}
				file.Close()
			}
			if !fi.Tripped() {
				// The exact site count can drift by a page or two between runs
				// (catalog encoding order); a site past the end proves nothing.
				t.Skipf("fault site %s not reached in this run", s.name)
			}

			re, tf, err := openTracked(work, durableOpts())
			if err != nil {
				t.Fatalf("clean reopen after crash: %v", err)
			}
			checkPageOwnership(t, re, tf)
			got := searchSnapshot(t, re)
			if err := re.Close(); err != nil {
				t.Errorf("close after recovery: %v", err)
			}
			switch got {
			case pre:
				if batchCommitted {
					t.Error("ApplyBatch reported success but recovery landed on the pre-batch state")
				}
			case post:
				if !batchRan {
					t.Error("batch never ran yet recovery produced the post-batch state")
				}
			default:
				t.Errorf("recovered state matches neither the pre- nor the post-batch committed state (batch ran: %v, committed: %v)",
					batchRan, batchCommitted)
			}
		})
	}

	// Crash the closing checkpoint at its first write: the batch's record is
	// durable, the data file holds half a page of it.
	crashed := filepath.Join(dir, "crashed.svrdb")
	cloneEngineFile(t, template, crashed)
	cfile, err = pagefile.Open(crashed, pagefile.WithFaults(pagefile.NewFaultInjector(pagefile.FaultPlan{FailWrite: 2, TornWrite: true})))
	if err != nil {
		t.Fatal(err)
	}
	if ce, err = openFromFile(cfile, durableOpts()); err != nil {
		t.Fatal(err)
	}
	if err := mutate(ce); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if cfile.Close() == nil {
		t.Fatal("Close reported success despite the injected checkpoint fault")
	}
	work := filepath.Join(dir, "work.svrdb")
	cloneEngineFile(t, crashed, work)
	counter = pagefile.NewFaultInjector(pagefile.FaultPlan{})
	if cfile, err = pagefile.Open(work, pagefile.WithFaults(counter)); err != nil {
		t.Fatal(err)
	}
	cfile.Close()
	if counter.Writes() < 3 {
		t.Fatalf("recovery issued %d writes; too few for a meaningful matrix", counter.Writes())
	}
	for i := 1; i <= counter.Writes(); i++ {
		t.Run(fmt.Sprintf("recovery-torn-write-%d", i), func(t *testing.T) {
			cloneEngineFile(t, crashed, work)
			fi := pagefile.NewFaultInjector(pagefile.FaultPlan{FailWrite: i, TornWrite: true})
			if file, err := pagefile.Open(work, pagefile.WithFaults(fi)); err == nil {
				file.Close()
				t.Fatal("recovery reported success despite the injected fault")
			}
			re, tf, err := openTracked(work, durableOpts())
			if err != nil {
				t.Fatalf("clean reopen after crashed recovery: %v", err)
			}
			checkPageOwnership(t, re, tf)
			got := searchSnapshot(t, re)
			if err := re.Close(); err != nil {
				t.Errorf("close after recovery: %v", err)
			}
			if got != post {
				t.Error("a recovery torn mid write-back did not roll forward to the post-batch state on the next open")
			}
		})
	}
}
