package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"svrdb/internal/storage/pagefile"
	"svrdb/internal/workload"
)

// TestCrashRecoveryMatrixLifecycle is the crash-matrix leg for the online
// index lifecycle: a committed archive database performs lifecycle
// operations — an online CreateTextIndex backfill; or a DropTextIndex and
// then a CreateTextIndex that builds on the pages the drop freed — while a
// deterministic fault kills the process at every write, torn-write and
// fsync site of their commits and of the checkpoint that closing the file
// writes, and at every read of the Open before them.  After each crash the
// file must reopen cleanly on the committed state of some prefix of the
// operations — each index either fully absent or fully present, query
// results byte-identical to that state, never in between — that includes
// every operation that reported success and none that never started, with
// the pages the catalog reaches and the rebuilt free list splitting the file
// between them.
func TestCrashRecoveryMatrixLifecycle(t *testing.T) {
	// The template uses the smallest page size and short descriptions: list
	// blobs are packed into shared pages, so at 4 KiB pages a test-sized
	// archive's lists fit in one page and a commit would offer a single
	// blob-page write to crash at.  At 512-byte pages 1,420 movies make a
	// create's checkpoint about 100 page writes across blob, tree and chain
	// pages, and an open about 340 page reads, most of them the walk of the
	// trees' internal nodes that rebuilds the free list.  A drop writes only
	// the catalog: its leg goes on to a create that reuses the dropped
	// pages, which only the in-memory free list records.  Both legs open the
	// same template, so the create leg crashes at every read of the open and
	// the drop leg only at the first 42, about the reads that load the
	// catalog before the walk.
	prepare := func(t *testing.T, path string) {
		e, err := Open(path, OpenOptions{Specs: archiveSpecRegistry(), PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		params := workload.DefaultArchiveParams()
		params.NumMovies, params.WordsPerDesc = 1420, 8
		if _, err := workload.BuildArchiveDB(e.DB(), params); err != nil {
			t.Fatal(err)
		}
		createAllMethodIndexes(t, e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	create := func(e *Engine) error {
		_, err := e.CreateTextIndex("idx-online", "Movies", "desc", IndexOptions{
			Method:   MethodChunk,
			SpecName: "archive",
		})
		return err
	}
	drop := func(e *Engine) error { return e.DropTextIndex("idx-" + string(MethodChunk)) }
	for _, op := range []struct {
		name  string
		steps []func(e *Engine) error
		// readSites caps the open's read sites crashed at; 0 takes all.
		readSites int
	}{
		{"create", []func(e *Engine) error{create}, 0},
		{"drop", []func(e *Engine) error{drop, create}, 42},
	} {
		op := op
		t.Run(op.name, func(t *testing.T) {
			dir := t.TempDir()
			template := filepath.Join(dir, "template.svrdb")
			prepare(t, template)

			// states[i] is the committed state after the first i steps.
			var states []string
			for i := 0; i <= len(op.steps); i++ {
				p := filepath.Join(dir, "state.svrdb")
				cloneEngineFile(t, template, p)
				e, err := Open(p, durableOpts())
				if err != nil {
					t.Fatal(err)
				}
				for _, step := range op.steps[:i] {
					if err := step(e); err != nil {
						t.Fatal(err)
					}
				}
				states = append(states, searchSnapshot(t, e))
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if i > 0 && states[i] == states[i-1] {
					t.Fatalf("%s step %d did not change any query results; the matrix would prove nothing", op.name, i)
				}
			}

			// Counting run: learn the fault-site counts for this operation.
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
			for _, step := range op.steps {
				if err := step(ce); err != nil {
					t.Fatal(err)
				}
			}
			if err := cfile.Close(); err != nil {
				t.Fatal(err)
			}
			writes, syncs := counter.Writes(), counter.Syncs()
			if writes < 2 || syncs < 2 || openReads < 2 {
				t.Fatalf("counting run saw %d writes, %d syncs, %d open reads; too few for a meaningful matrix", writes, syncs, openReads)
			}

			type site struct {
				name string
				plan pagefile.FaultPlan
			}
			var sites []site
			for i := 1; i <= int(writes); i++ {
				sites = append(sites,
					site{fmt.Sprintf("write-%d", i), pagefile.FaultPlan{FailWrite: i}},
					site{fmt.Sprintf("torn-write-%d", i), pagefile.FaultPlan{FailWrite: i, TornWrite: true}})
			}
			for i := 1; i <= int(syncs); i++ {
				sites = append(sites, site{fmt.Sprintf("sync-%d", i), pagefile.FaultPlan{FailSync: i}})
			}
			if op.readSites > 0 {
				openReads = min(openReads, op.readSites)
			}
			for i := 1; i <= int(openReads); i++ {
				sites = append(sites, site{fmt.Sprintf("read-%d", i), pagefile.FaultPlan{FailRead: i}})
			}

			for _, s := range sites {
				t.Run(s.name, func(t *testing.T) {
					work := filepath.Join(dir, "work.svrdb")
					cloneEngineFile(t, template, work)
					fi := pagefile.NewFaultInjector(s.plan)
					file, err := pagefile.Open(work, pagefile.WithFaults(fi))

					// ran counts the steps started, committed those that
					// reported success.
					ran, committed := 0, 0
					if err == nil {
						e, openErr := openFromFile(file, durableOpts())
						if openErr == nil {
							for _, step := range op.steps {
								ran++
								if step(e) != nil {
									break
								}
								committed++
							}
						}
						file.Close()
					}
					if !fi.Tripped() {
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
					landed := -1
					for i, state := range states {
						if got == state {
							landed = i
						}
					}
					switch {
					case landed < 0:
						t.Errorf("recovered state matches the committed state of no prefix of the steps (%d ran, %d committed)", ran, committed)
					case landed < committed:
						t.Errorf("%d steps reported success but recovery landed on the state after %d", committed, landed)
					case landed > ran:
						t.Errorf("recovery landed on the state after %d steps, but only %d ran", landed, ran)
					}
				})
			}
		})
	}
}
