package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"svrdb/internal/storage/pagefile"
	"svrdb/internal/workload"
)

// TestCrashRecoveryMatrixLifecycle is the crash-matrix leg for the online
// index lifecycle: a committed archive database performs one lifecycle
// operation — an online CreateTextIndex backfill, or a DropTextIndex —
// while a deterministic fault kills the process at every write, torn-write
// and fsync site of the commit protocol and of the checkpoint that closing
// the file writes.  After each crash the file must
// reopen cleanly with the index either fully absent or fully present
// (query results byte-identical to the pre- or post-op committed state),
// never in between — and if the operation reported success, the post state
// is mandatory.
func TestCrashRecoveryMatrixLifecycle(t *testing.T) {
	// The template uses the smallest page size and short descriptions: list
	// blobs are packed into shared pages, so at 4 KiB pages a test-sized
	// archive's lists fit in one page and a commit would offer a single
	// blob-page write to crash at.  At 512-byte pages 900 movies make each
	// operation's checkpoint about 100 page writes across blob, tree and chain
	// pages, and an open about 40 page reads.
	prepare := func(t *testing.T, path string) {
		e, err := Open(path, OpenOptions{Specs: archiveSpecRegistry(), PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		params := workload.DefaultArchiveParams()
		params.NumMovies, params.WordsPerDesc = 900, 8
		if _, err := workload.BuildArchiveDB(e.DB(), params); err != nil {
			t.Fatal(err)
		}
		createAllMethodIndexes(t, e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []struct {
		name   string
		mutate func(e *Engine) error
	}{
		{
			name: "create",
			mutate: func(e *Engine) error {
				_, err := e.CreateTextIndex("idx-online", "Movies", "desc", IndexOptions{
					Method:   MethodChunk,
					SpecName: "archive",
				})
				return err
			},
		},
		{
			name: "drop",
			mutate: func(e *Engine) error {
				return e.DropTextIndex("idx-" + string(MethodChunk))
			},
		},
	} {
		op := op
		t.Run(op.name, func(t *testing.T) {
			dir := t.TempDir()
			template := filepath.Join(dir, "template.svrdb")
			prepare(t, template)

			snapshotOf := func(name string, mutate func(e *Engine) error) string {
				p := filepath.Join(dir, name+".svrdb")
				cloneEngineFile(t, template, p)
				e, err := Open(p, durableOpts())
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if mutate != nil {
					if err := mutate(e); err != nil {
						t.Fatal(err)
					}
				}
				return searchSnapshot(t, e)
			}
			pre := snapshotOf("pre", nil)
			post := snapshotOf("post", op.mutate)
			if pre == post {
				t.Fatalf("%s did not change any query results; the matrix would prove nothing", op.name)
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
			if err := op.mutate(ce); err != nil {
				t.Fatal(err)
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
			for i := 1; i <= int(openReads); i++ {
				sites = append(sites, site{fmt.Sprintf("read-%d", i), pagefile.FaultPlan{FailRead: i}})
			}

			for _, s := range sites {
				t.Run(s.name, func(t *testing.T) {
					work := filepath.Join(dir, "work.svrdb")
					cloneEngineFile(t, template, work)
					fi := pagefile.NewFaultInjector(s.plan)
					file, err := pagefile.Open(work, pagefile.WithFaults(fi))

					opRan, opCommitted := false, false
					if err == nil {
						e, openErr := openFromFile(file, durableOpts())
						if openErr == nil {
							opRan = true
							opCommitted = op.mutate(e) == nil
						}
						file.Close()
					}
					if !fi.Tripped() {
						t.Skipf("fault site %s not reached in this run", s.name)
					}

					re, err := Open(work, durableOpts())
					if err != nil {
						t.Fatalf("clean reopen after crash: %v", err)
					}
					got := searchSnapshot(t, re)
					if err := re.Close(); err != nil {
						t.Errorf("close after recovery: %v", err)
					}
					switch got {
					case pre:
						if opCommitted {
							t.Errorf("%s reported success but recovery landed on the pre-op state", op.name)
						}
					case post:
						if !opRan {
							t.Errorf("%s never ran yet recovery produced the post-op state", op.name)
						}
					default:
						t.Errorf("recovered state matches neither the fully-absent nor the fully-present index state (op ran: %v, committed: %v)",
							opRan, opCommitted)
					}
				})
			}
		})
	}
}
