package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"svrdb/internal/index"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

// TestApplyBatchAfterClose pins the engine-level close fence: a batch that
// acquires the batch lock after Close must fail fast with ErrClosed and
// never run fn — otherwise its base-table mutations would land on storage
// that has already been flushed, pin-audited and closed.
func TestApplyBatchAfterClose(t *testing.T) {
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 2048))
	params := workload.DefaultArchiveParams()
	params.NumMovies = 10
	if _, err := workload.BuildArchiveDB(db, params); err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(db, Options{})
	if _, err := engine.CreateTextIndex("m", "Movies", "desc", IndexOptions{Spec: workload.ArchiveSpec()}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ran := false
	err := engine.ApplyBatch(func() error { ran = true; return nil })
	if !errors.Is(err, ErrClosed) {
		t.Errorf("ApplyBatch after Close error = %v, want ErrClosed", err)
	}
	if ran {
		t.Error("ApplyBatch ran fn against a closed engine")
	}

	// Close is idempotent.
	if err := engine.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestSearchAfterCloseSentinel pins that every read entry point of a text
// index answers the fence's error once the index is shut: ErrClosed, which
// the serving layer maps to 503, after Engine.Close, and not-found (404)
// after DropTextIndex — never the drained method's own index.ErrClosed.  A
// read that starts between the fence and the drain answers the fence's
// error too, and leaves no epoch pin behind for the drain to wait on.
func TestSearchAfterCloseSentinel(t *testing.T) {
	reads := []struct {
		name string
		read func(*TextIndex) error
	}{
		{"Search", func(ti *TextIndex) error {
			_, err := ti.Search(SearchRequest{Query: "alpha", K: 1})
			return err
		}},
		{"SearchLoadRows", func(ti *TextIndex) error {
			_, err := ti.Search(SearchRequest{Query: "alpha", K: 1, LoadRows: true})
			return err
		}},
		{"TermStats", func(ti *TextIndex) error {
			_, _, err := ti.TermStats("alpha")
			return err
		}},
		{"ScoreOf", func(ti *TextIndex) error {
			_, _, err := ti.ScoreOf(1)
			return err
		}},
	}
	shuts := []struct {
		name string
		shut func(*Engine) error
		want error
	}{
		{"Close", func(e *Engine) error { return e.Close() }, ErrClosed},
		{"DropTextIndex", func(e *Engine) error { return e.DropTextIndex("d") }, relation.ErrNotFound},
		{"FenceBeforeDrain", func(e *Engine) error {
			e.indexes["d"].fenceOut(fmt.Errorf("core: text index %q: %w", "d", ErrClosed))
			return nil
		}, ErrClosed},
	}
	for _, sh := range shuts {
		t.Run(sh.name, func(t *testing.T) {
			engine, idx := newSentinelIndex(t)
			for _, r := range reads {
				if err := r.read(idx); err != nil {
					t.Fatalf("%s before %s: %v", r.name, sh.name, err)
				}
			}
			if err := sh.shut(engine); err != nil {
				t.Fatal(err)
			}
			for _, r := range reads {
				if err := r.read(idx); !errors.Is(err, sh.want) || errors.Is(err, index.ErrClosed) {
					t.Errorf("%s after %s error = %v, want %v", r.name, sh.name, err, sh.want)
				}
			}
			drained := make(chan error, 1)
			go func() { drained <- idx.method.Drain() }()
			select {
			case err := <-drained:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("Drain after %s still waits: a read left its epoch pin", sh.name)
			}
			if sh.name != "Close" {
				if err := engine.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// newSentinelIndex returns an engine with one single-row text index "d".
func newSentinelIndex(t *testing.T) (*Engine, *TextIndex) {
	t.Helper()
	db := relation.NewDB(buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 2048))
	tbl, err := db.CreateTable(relation.Schema{
		Name: "Docs",
		Columns: []relation.Column{
			{Name: "id", Kind: relation.KindInt64},
			{Name: "body", Kind: relation.KindString},
			{Name: "val", Kind: relation.KindFloat64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(relation.Row{relation.Int(1), relation.Str("alpha"), relation.Float(1)}); err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(db, Options{})
	idx, err := engine.CreateTextIndex("d", "Docs", "body", IndexOptions{
		Spec: view.Spec{Components: []view.Component{view.OwnColumn("Docs", "val")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine, idx
}
