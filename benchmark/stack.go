package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

const (
	// pageSize is the durable default, 4 KiB: a 100-token row is ~0.8 KB and
	// a B+-tree entry may not exceed a quarter page.
	pageSize = pagefile.DefaultDiskPageSize
	// buildPoolPages sizes the pool while building, before the database
	// size is known; frames are allocated lazily, so this is a ceiling.
	buildPoolPages = 1 << 17
	// minColdPoolPages keeps enough frames for one query's pinned pages.
	minColdPoolPages = 32
	// reopenCycles is how many close/open cycles core.open_ms is the median of;
	// a cycle is a few milliseconds of mostly I/O, so it takes this many for
	// the median to settle.
	reopenCycles = 11
)

func scoreSpec() view.Spec {
	return view.Spec{Components: []view.Component{view.OwnColumn(tableName, "score")}}
}

func openOptions(poolPages int) core.OpenOptions {
	return core.OpenOptions{
		Specs:     map[string]view.Spec{specName: scoreSpec()},
		PoolPages: poolPages,
		PageSize:  pageSize,
	}
}

// shard is one engine of the stack: the whole corpus for the single-server
// workloads, a hash partition of it for router-search.
type shard struct {
	path   string // "" for the in-memory durability twin
	keep   func(doc int64) bool
	engine *core.Engine
	chunk  *core.TextIndex
	cts    *core.TextIndex
}

func (s *shard) attach(e *core.Engine) error {
	chunk, err := e.TextIndex(chunkIndex)
	if err != nil {
		return err
	}
	cts, err := e.TextIndex(ctsIndex)
	if err != nil {
		return err
	}
	s.engine, s.chunk, s.cts = e, chunk, cts
	return nil
}

func (s *shard) index(name string) *core.TextIndex {
	if name == ctsIndex {
		return s.cts
	}
	return s.chunk
}

// load fills an empty engine: the shard's rows, both indexes, then the
// set-up-time score updates in 256-row ApplyBatches so the short lists are
// populated before anything is measured.
func (s *shard) load(e *core.Engine, ds *dataset) error {
	tbl, err := e.DB().CreateTable(relation.Schema{
		Name: tableName,
		Columns: []relation.Column{
			{Name: "id", Kind: relation.KindInt64},
			{Name: "body", Kind: relation.KindString},
			{Name: "score", Kind: relation.KindFloat64},
		},
	})
	if err != nil {
		return err
	}
	err = ds.corpus.ForEach(func(doc workload.DocID, tokens []string) error {
		if !s.keep(int64(doc)) {
			return nil
		}
		return tbl.Insert(ds.row(doc, tokens))
	})
	if err != nil {
		return err
	}
	e.RegisterSpec(specName, scoreSpec())
	for _, ix := range []struct {
		name string
		kind core.MethodKind
	}{{chunkIndex, core.MethodChunk}, {ctsIndex, core.MethodChunkTermScore}} {
		if _, err := e.CreateTextIndex(ix.name, tableName, "body", core.IndexOptions{Method: ix.kind, Spec: scoreSpec(), SpecName: specName}); err != nil {
			return err
		}
	}
	if err := s.attach(e); err != nil {
		return err
	}
	var owned []workload.ScoreUpdate
	for _, u := range ds.updates[:ds.preApply] {
		if s.keep(int64(u.Doc)) {
			owned = append(owned, u)
		}
	}
	for len(owned) > 0 {
		n := min(preApplyBatchRows, len(owned))
		if _, err := s.applyDirect(owned[:n]); err != nil {
			return err
		}
		owned = owned[n:]
	}
	return nil
}

// applyDirect applies score updates through Engine.ApplyBatch, bypassing the
// serving layer, and reports how long the batch's closure (the base-table
// updates and their view refreshes) ran.
func (s *shard) applyDirect(updates []workload.ScoreUpdate) (closure time.Duration, err error) {
	tbl, err := s.engine.DB().Table(tableName)
	if err != nil {
		return 0, err
	}
	err = s.engine.ApplyBatch(func() error {
		start := time.Now()
		defer func() { closure = time.Since(start) }()
		for _, u := range updates {
			if err := tbl.Update(int64(u.Doc), map[string]relation.Value{"score": relation.Float(u.NewScore)}); err != nil {
				return err
			}
		}
		return nil
	})
	return closure, err
}

// stack is the serving stack of one workload: its shard engines behind a
// server.Server (one shard) or a server.Router (several), listening on
// loopback.
type stack struct {
	spec   *workloadSpec
	ds     *dataset
	shards []*shard
	// poolPages is the per-shard pool capacity the stack serves with.
	poolPages int
	// workingSetPages is how many distinct pages one cold pass over every
	// distinct query faults, summed over shards.
	workingSetPages int
	// dbPages and diskBytes are the database size after set-up (data files
	// plus WAL sidecars), summed over shards.
	dbPages   int
	diskBytes int64
	openMs    []float64 // per reopen cycle: core.Open to first successful search
	coreOpenU []float64 // per reopen cycle: core.Open alone, µs

	srv     *server.Server
	rt      *server.Router
	handler http.Handler
	baseURL string
	client  *http.Client
}

// partition returns each shard's ownership test under the default (hash)
// partitioner, the placement the router routes by.
func partition(shards int) ([]func(doc int64) bool, error) {
	part, err := core.PartitionerByName(core.DefaultPartitioner)
	if err != nil {
		return nil, err
	}
	keeps := make([]func(doc int64) bool, shards)
	for i := range keeps {
		keeps[i] = func(doc int64) bool { return part.Shard(doc, shards) == i }
	}
	return keeps, nil
}

// buildStack builds the workload's database from the dataset into dir,
// closes it, measures the working set and the reopen cycles, reopens it with
// the workload's pool and starts serving.  Every byte it reads back comes
// through core.Open of a closed file, as after a restart.
func buildStack(spec *workloadSpec, ds *dataset, dir string, rec *spanRecorder) (*stack, error) {
	st := &stack{spec: spec, ds: ds}
	keeps, err := partition(spec.shards)
	if err != nil {
		return nil, err
	}
	for i, keep := range keeps {
		sh := &shard{path: filepath.Join(dir, fmt.Sprintf("shard-%d.svrdb", i)), keep: keep}
		e, err := core.Open(sh.path, openOptions(buildPoolPages))
		if err != nil {
			return nil, err
		}
		if err := sh.load(e, ds); err != nil {
			return nil, errors.Join(err, e.Close())
		}
		st.dbPages += int(e.Pool().File().NumPages())
		if err := e.Close(); err != nil {
			return nil, err
		}
		st.shards = append(st.shards, sh)
	}
	for _, sh := range st.shards {
		for _, p := range []string{sh.path, sh.path + ".wal"} {
			if fi, err := os.Stat(p); err == nil {
				st.diskBytes += fi.Size()
			}
		}
	}

	// Cycle 1 opens with a pool larger than the database, so every page the
	// cold pass touches faults exactly once: the miss count is the working
	// set.  The remaining cycles use the serving pool.
	if err := st.openCycle(st.dbPages+1024, true); err != nil {
		return nil, err
	}
	st.poolPages = spec.poolPages(st.workingSetPages/spec.shards, st.dbPages/spec.shards)
	for i := 1; i < reopenCycles; i++ {
		if err := st.openCycle(st.poolPages, false); err != nil {
			return nil, err
		}
	}
	if err := st.open(st.poolPages); err != nil {
		return nil, err
	}
	if err := st.serve(rec); err != nil {
		return nil, errors.Join(err, st.closeEngines())
	}
	return st, nil
}

// open reopens every shard's file.
func (st *stack) open(poolPages int) error {
	for _, sh := range st.shards {
		e, err := core.Open(sh.path, openOptions(poolPages))
		if err != nil {
			return err
		}
		if err := sh.attach(e); err != nil {
			return errors.Join(err, e.Close())
		}
	}
	return nil
}

func (st *stack) closeEngines() error {
	var errs []error
	for _, sh := range st.shards {
		if sh.engine != nil && !sh.engine.Closed() {
			errs = append(errs, sh.engine.Close())
		}
	}
	return errors.Join(errs...)
}

// openCycle times one restart: open every shard, then a first search on
// each.  With coldPass it goes on to run every distinct query once and
// counts the pages faulted.
func (st *stack) openCycle(poolPages int, coldPass bool) error {
	start := time.Now()
	if err := st.open(poolPages); err != nil {
		return err
	}
	st.coreOpenU = append(st.coreOpenU, micros(time.Since(start)))
	first := &st.ds.queries[st.ds.schedule[0]]
	for _, sh := range st.shards {
		// Local IDF is enough here and in the cold pass: they exist to
		// touch pages, not to rank.
		if _, err := sh.index(first.index).Search(first.coreRequest(nil)); err != nil {
			return err
		}
	}
	st.openMs = append(st.openMs, millis(time.Since(start)))
	if coldPass {
		for i := range st.ds.queries {
			q := &st.ds.queries[i]
			for _, sh := range st.shards {
				if _, err := sh.index(q.index).Search(q.coreRequest(nil)); err != nil {
					return err
				}
			}
		}
		for _, sh := range st.shards {
			st.workingSetPages += int(sh.engine.Pool().Stats().Misses)
		}
	}
	return st.closeEngines()
}

// frontEnd puts the opened engines behind the workload's front end: a
// server.Server over the one shard, or a server.Router over in-process
// backends, which are wrapped in the span-recording decorator when tracing.
func (st *stack) frontEnd(rec *spanRecorder) error {
	if !st.spec.router {
		st.srv = server.New(st.shards[0].engine, server.Options{})
		st.handler = st.srv.Handler()
		return nil
	}
	backends := make([]server.Backend, len(st.shards))
	for i, sh := range st.shards {
		backends[i] = server.NewEngineBackend(fmt.Sprintf("shard-%d", i), sh.engine, true)
		if rec != nil {
			backends[i] = &timedBackend{Backend: backends[i], rec: rec}
		}
	}
	rt, err := server.NewRouter(backends, server.RouterOptions{})
	if err != nil {
		return err
	}
	st.rt, st.handler = rt, rt.Handler()
	return nil
}

// serve builds the front end and starts it on an ephemeral loopback port.
func (st *stack) serve(rec *spanRecorder) error {
	if err := st.frontEnd(rec); err != nil {
		return err
	}
	var addr string
	var err error
	if st.rt != nil {
		addr, err = st.rt.Start("127.0.0.1:0")
	} else {
		addr, err = st.srv.Start("127.0.0.1:0")
	}
	if err != nil {
		return err
	}
	st.baseURL = "http://" + addr
	st.client = server.NewLoadClient(st.spec.clients())
	return nil
}

// shutdown drains the front end and closes every engine, which flushes,
// checkpoints and runs the close-time pin audit.
func (st *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.rt != nil {
		return st.rt.Shutdown(ctx)
	}
	return st.srv.Shutdown(ctx)
}

// checkPins audits every shard's buffer pool; it must only run while no
// request is in flight.
func (st *stack) checkPins() error {
	for _, sh := range st.shards {
		if err := sh.engine.Pool().CheckPins(); err != nil {
			return err
		}
	}
	return nil
}

// fileBytes is the current on-disk footprint: data files plus WAL sidecars.
func (st *stack) fileBytes() int64 {
	var n int64
	for _, sh := range st.shards {
		n += int64(sh.engine.Pool().File().SizeBytes())
		if fi, err := os.Stat(sh.path + ".wal"); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// buildTwin builds the same shards on memory page files behind the same
// front end, without a listener: the twin the traced run applies the same
// batches to.  Durable minus twin is what the WAL, the fsyncs and the catalog
// rewrite cost; and with no fsync in the way, the twin's handler time minus
// its ApplyBatch time is the serving layer's share of a batch.
func buildTwin(spec *workloadSpec, ds *dataset, poolPages int) (*stack, error) {
	keeps, err := partition(spec.shards)
	if err != nil {
		return nil, err
	}
	twin := &stack{spec: spec, ds: ds, poolPages: poolPages}
	for _, keep := range keeps {
		sh := &shard{keep: keep}
		pool, err := buffer.New(pagefile.MustNewMem(pageSize), poolPages)
		if err != nil {
			return nil, err
		}
		if err := sh.load(core.NewEngine(relation.NewDB(pool), core.Options{}), ds); err != nil {
			return nil, err
		}
		twin.shards = append(twin.shards, sh)
	}
	return twin, twin.frontEnd(nil)
}

// applyDirectAll splits a batch by owning shard and applies the parts
// concurrently, the way the router fans a /v1/batch out; it reports the
// wall time of the whole and the longest closure.
func applyDirectAll(shards []*shard, updates []workload.ScoreUpdate) (total, closure time.Duration, err error) {
	start := time.Now()
	if len(shards) == 1 {
		closure, err = shards[0].applyDirect(updates)
		return time.Since(start), closure, err
	}
	type part struct {
		closure time.Duration
		err     error
	}
	done := make(chan part, len(shards))
	for _, sh := range shards {
		var owned []workload.ScoreUpdate
		for _, u := range updates {
			if sh.keep(int64(u.Doc)) {
				owned = append(owned, u)
			}
		}
		go func(sh *shard) {
			c, err := sh.applyDirect(owned)
			done <- part{c, err}
		}(sh)
	}
	for range shards {
		p := <-done
		closure = max(closure, p.closure)
		err = errors.Join(err, p.err)
	}
	return time.Since(start), closure, err
}
