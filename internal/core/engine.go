package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"svrdb/internal/index"
	"svrdb/internal/postings"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/text"
	"svrdb/internal/view"
)

// ErrClosed is wrapped into the error every engine entry point returns once
// Engine.Close has fenced the engine; callers (the HTTP serving layer in
// particular) match it with errors.Is to distinguish "shutting down" from a
// real failure.
var ErrClosed = errors.New("engine is closed")

// ErrInvalidRequest is wrapped into request-validation failures in Search
// (non-positive k, a query with no indexable terms) so callers — the HTTP
// layer in particular — can distinguish a caller mistake from an engine
// fault.
var ErrInvalidRequest = errors.New("invalid search request")

// ErrQuotaExceeded is wrapped into the rejection a tenant's batch gets when
// applying it would push the tenant past its row or byte quota.  The batch
// is rejected before any of it applies — quota checks run under the batch
// lock ahead of the batch body, so rejection is atomic.
var ErrQuotaExceeded = errors.New("tenant quota exceeded")

// ErrExists is wrapped into errors for creating something that already
// exists (an index name in use); HTTP maps it to 409 Conflict.
var ErrExists = errors.New("already exists")

// MethodKind selects which inverted-list structure a text index uses.
type MethodKind string

// The supported index methods (§4 of the paper).
const (
	MethodID             MethodKind = "id"
	MethodScore          MethodKind = "score"
	MethodScoreThreshold MethodKind = "score-threshold"
	MethodChunk          MethodKind = "chunk"
	MethodIDTermScore    MethodKind = "id-termscore"
	MethodChunkTermScore MethodKind = "chunk-termscore"
)

// AllMethods lists every supported method kind in the order the paper's
// tables report them (the index package's registry).
func AllMethods() []MethodKind {
	var out []MethodKind
	for _, k := range index.Kinds() {
		out = append(out, MethodKind(k.ID))
	}
	return out
}

// Engine is the top-level SVR engine.
type Engine struct {
	db       *relation.DB
	analyzer *text.Analyzer

	mu      sync.RWMutex
	indexes map[string]*TextIndex

	// specs is the score-spec registry: online index creation (the HTTP
	// POST /v1/indexes path in particular) references specs by name because
	// a spec holds Go functions that cannot travel in a request body or the
	// durable catalog.  Guarded by specMu.
	specMu sync.RWMutex
	specs  map[string]view.Spec

	// tenants maps tenant names to their quotas.  A tenant's namespace is
	// the set of tables and indexes named "<tenant>/<rest>"; quotas meter
	// that namespace's row and byte footprint.  Guarded by tenantMu.
	tenantMu sync.RWMutex
	tenants  map[string]TenantQuota

	// batchMu serializes ApplyBatch calls: the per-index batching flag is
	// engaged for the duration of one batch, so overlapping batches would
	// flush each other's half-accumulated events.
	batchMu sync.Mutex
	// Group-commit state.  Concurrent ApplyBatch callers coalesce into one
	// pagefile Commit: a batch that sees other callers queued on batchMu
	// (commitWaiters > 0) skips its own commit and waits for a successor's,
	// which — because pagefile.Commit covers every staged page, not just the
	// committing batch's — makes the earlier batch durable too.  batchSeq
	// numbers batches (guarded by batchMu); commitSeq/commitErr record the
	// newest batch covered by a finished commit (guarded by commitMu,
	// signalled through commitCond).
	commitWaiters atomic.Int64
	batchSeq      uint64
	commitMu      sync.Mutex
	commitCond    *sync.Cond
	commitSeq     uint64
	commitErr     error
	// closed is set by Close under batchMu, and the writers that take
	// batchMu read it there: an ApplyBatch that acquires batchMu afterwards
	// must fail fast rather than run fn's base-table mutations against
	// flushed, audited, closed storage.  It is atomic for the lock-free
	// observer (Closed): a shard health probe must not block behind batchMu
	// while a long batch holds it.
	closed atomic.Bool

	// durable marks engines opened from a page file on disk (core.Open):
	// every ApplyBatch return and Close writes an atomic checkpoint
	// (commitDurable).  In-memory engines skip all of it.
	durable bool
	// anchor is the page chain holding the catalog anchor, rewritten in
	// place by every commit (guarded by batchMu, like the commits that use
	// it).  anchorBytes is its encoded length and dictRewrites counts
	// dictionary-chain rewrites, both for lock-free stats readers.
	anchor       pageChain
	anchorBytes  atomic.Int64
	dictRewrites atomic.Uint64
}

// Options configures an Engine.  It has no fields: the analyzer is fixed
// (see text.Analyzer).  NewEngine keeps the parameter so that its callers —
// the commands, the examples and the benchmark harness — need not change.
type Options struct{}

// NewEngine creates an engine over an existing relational database.
func NewEngine(db *relation.DB, _ Options) *Engine {
	e := &Engine{
		db:       db,
		analyzer: &text.Analyzer{},
		indexes:  map[string]*TextIndex{},
		specs:    map[string]view.Spec{},
		tenants:  map[string]TenantQuota{},
	}
	e.commitCond = sync.NewCond(&e.commitMu)
	return e
}

// RegisterSpec registers a score specification under a name so online index
// creation (and durable reopen) can resolve it.  Re-registering a name
// replaces the spec.
func (e *Engine) RegisterSpec(name string, spec view.Spec) {
	e.specMu.Lock()
	defer e.specMu.Unlock()
	e.specs[name] = spec
}

// Spec resolves a registered score specification by name.
func (e *Engine) Spec(name string) (view.Spec, bool) {
	e.specMu.RLock()
	defer e.specMu.RUnlock()
	s, ok := e.specs[name]
	return s, ok
}

// SpecNames lists the registered score-spec names in sorted order.
func (e *Engine) SpecNames() []string {
	e.specMu.RLock()
	defer e.specMu.RUnlock()
	names := make([]string, 0, len(e.specs))
	for n := range e.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close shuts the engine down: in-flight maintenance writes and searches
// are drained (the writer mutex and the shutdown fence's write side are
// each acquired once, so every write and Search that started before Close
// finishes first), each index's epoch readers are drained and its retired
// pages recycled (Method.Drain), accumulated maintenance errors are
// surfaced, dirty pages are written back in one ordered sweep, and the
// buffer pool's pin accounting is audited (CheckPins) so that a pin leak
// or over-release anywhere in the storage stack — e.g. on the B+-tree
// patch fast path — fails loudly at close instead of shipping silently.
// The underlying page file is closed last.  The drain also fences: each
// index is marked closed, so a search or maintenance write that starts
// after the drain fails fast instead of pinning pages while the audit runs
// or touching a closed file.  The fence covers the engine's own paths
// (Search, ScoreOf and index maintenance); direct relation.Table reads
// are not fenced — callers that read tables directly must stop doing so
// before Close, or the pin audit may observe their in-flight pins.  An
// in-flight ApplyBatch is waited for: Close takes the batch lock first, so
// a batch's base-table mutations and index flush complete before the drain
// and audit begin.  Close is idempotent: a second call returns nil without
// touching the already-closed storage, and an ApplyBatch that acquires the
// batch lock after Close fails fast with ErrClosed.
func (e *Engine) Close() error {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	if e.closed.Load() {
		return nil
	}
	e.closed.Store(true)
	indexes := e.textIndexes()
	var errs []error
	for _, ti := range indexes {
		// Drain and fence.  writerMu waits out any in-flight maintenance
		// write; the rw write lock waits out in-flight searches (the only
		// writer of rw is this drain); the closed mark turns away anything
		// that starts later.  Method.Drain then waits for any straggling
		// epoch readers and recycles every page retired for them, so the
		// pin audit and the final flush below see quiesced structures.
		ti.writerMu.Lock()
		ti.rw.Lock()
		ti.closed = true
		ti.rw.Unlock()
		ti.writerMu.Unlock()
		if err := ti.method.Drain(); err != nil {
			errs = append(errs, fmt.Errorf("core: index %q: drain: %w", ti.name, err))
		}
		if err := ti.MaintenanceErr(); err != nil {
			errs = append(errs, fmt.Errorf("core: index %q: %w", ti.name, err))
		}
	}
	pool := e.db.Pool()
	// A durable engine writes a final checkpoint (flush + catalog + commit)
	// so a clean shutdown reopens without WAL replay; in-memory engines just
	// flush.  The checkpoint runs after the drain above, so every index is
	// quiesced and its tree roots are final.
	if e.durable {
		// commitUpTo (not bare commitDurable) so any ApplyBatch that
		// deferred its commit and is still waiting gets released by this
		// final covering checkpoint.
		if err := e.commitUpTo(e.batchSeq); err != nil {
			errs = append(errs, err)
		}
	} else if err := pool.FlushOrdered(); err != nil {
		errs = append(errs, err)
	}
	if err := pool.CheckPins(); err != nil {
		errs = append(errs, err)
	}
	if err := pool.File().Close(); err != nil {
		errs = append(errs, err)
	}
	// The engine's memory — the buffer pool above all, sized up to the
	// database, plus the page file's staging buffers, the dictionaries and the
	// last snapshots — is garbage now.  A process that goes on running (a
	// reopen, an in-process shard restart) would otherwise carry it as idle
	// heap until the background scavenger gets round to it, seconds later;
	// hand it back at once.
	debug.FreeOSMemory()
	return errors.Join(errs...)
}

// Closed reports whether Close has run.  It never blocks — shard health
// probes call it while writers may be holding the batch lock.
func (e *Engine) Closed() bool { return e.closed.Load() }

// DB returns the engine's relational database.
func (e *Engine) DB() *relation.DB { return e.db }

// Analyzer returns the engine's text analyzer, the fixed text.Analyzer every
// engine tokenizes with; callers that time or reproduce tokenization use it.
func (e *Engine) Analyzer() *text.Analyzer { return e.analyzer }

// Pool returns the buffer pool that backs the engine's storage.
func (e *Engine) Pool() *buffer.Pool { return e.db.Pool() }

// IndexOptions configures a text index.
type IndexOptions struct {
	// Method selects the inverted-list structure; the default is Chunk, the
	// paper's recommended method.
	Method MethodKind
	// Spec is the SVR score specification (§3.1).
	Spec view.Spec
	// SpecName is the registry name the spec can be resolved under when the
	// engine is reopened from a durable file (see OpenOptions.Specs).  Specs
	// hold Go functions and cannot be serialized, so a durable engine
	// records this name in its catalog instead.  Required for durable
	// engines; ignored for in-memory ones.
	SpecName string
	// ThresholdRatio, ChunkRatio, MinChunkSize and FancyListSize override the
	// method knobs; zero values use the paper's defaults.
	ThresholdRatio float64
	ChunkRatio     float64
	MinChunkSize   int
	FancyListSize  int
}

// TextIndex is one SVR text index over a (table, column) pair.
//
// A TextIndex is safe for concurrent use, and searches never block behind
// maintenance: every query evaluates against the method's atomically
// published snapshot (see internal/index: epoch/snapshot reads), so the
// write paths — change-event flushes (see queue) and MergeShortLists — only
// serialize against each other on writerMu, never against readers.  The
// only lock a search takes is the read side of rw, whose write side is taken
// exactly once, by Engine.Close, to fence shutdown; during normal operation
// it is uncontended.
type TextIndex struct {
	name   string
	table  string
	column string
	// specName and cfg are recorded in the durable catalog so the index can
	// be reattached on reopen (the spec is resolved by name, the config
	// rebuilds the method knobs).
	specName string
	cfg      index.Config

	engine *Engine
	view   *view.ScoreView
	method index.Method
	// baseHook is the change-listener handle registered on the indexed
	// table, kept so DropTextIndex can detach it.
	baseHook relation.ListenerHandle

	// writerMu serializes the maintenance paths against each other.  Readers
	// never take it: queries run against published snapshots.
	writerMu sync.Mutex
	// rw is the shutdown fence only.  Search holds the read side across the
	// top-k evaluation and the row join; Engine.Close takes the write side
	// once to drain in-flight searches before the pin audit and file close.
	// No maintenance path ever takes the write side, so searches never wait
	// on it in a running engine.
	rw sync.RWMutex
	// closed is set by Engine.Close with both writerMu and rw held; a Search
	// or maintenance write that starts afterwards fails fast instead of
	// touching a closed page file while the close-time pin audit runs.
	closed bool
	// dropped distinguishes an index fenced by DropTextIndex from one fenced
	// by engine shutdown: a search racing a drop reports not-found (the
	// index is gone) rather than engine-closed.
	dropped bool

	// dict is the index's dictionary chain in a durable engine's file and
	// dictGen the index.MethodAnchor.DictGen it holds; a commit rewrites
	// the chain only when the method's generation has moved on.  Guarded by
	// the engine's batchMu, like the commits that use them.
	dict    pageChain
	dictGen uint64

	mu              sync.Mutex
	maintenanceErrs []error
	// droppedErrs counts maintenance errors discarded once maintenanceErrs
	// reached maxMaintenanceErrs, so a repeatedly failing index reports a
	// bounded error list plus an accurate drop count instead of growing
	// without bound.
	droppedErrs uint64
	// pending is the one maintenance queue: every change event becomes an
	// index.Update appended here in notification order, and flush applies the
	// queue in one Method.ApplyUpdates call — at once outside ApplyBatch, at
	// the batch's end while batching is set.
	batching bool
	pending  []index.Update
}

// maxMaintenanceErrs bounds how many maintenance errors a TextIndex retains;
// further errors only bump the dropped-error counter.
const maxMaintenanceErrs = 16

// CreateTextIndex creates and bulk-builds a text index.  It is safe on a
// live engine: the whole backfill runs under the batch lock, so ApplyBatch
// writers queue behind it exactly as behind a long batch, while searches —
// which never touch the batch lock — keep serving throughout.  Searches
// against the new name cleanly miss until the index is registered, after
// which they observe the fully backfilled index; there is no in-between
// state.  Writers that bypass ApplyBatch and mutate tables directly during
// the backfill are not fenced and may be missed — the engine's write paths
// (HTTP serving included) all go through ApplyBatch.
//
// When opts.Spec is empty and opts.SpecName is set, the spec is resolved
// from the engine's registry (RegisterSpec / OpenOptions.Specs), which is
// how creation requests arriving over HTTP name their scoring.
func (e *Engine) CreateTextIndex(name, table, column string, opts IndexOptions) (*TextIndex, error) {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	if e.closed.Load() {
		return nil, fmt.Errorf("core: %w", ErrClosed)
	}
	e.mu.RLock()
	_, exists := e.indexes[name]
	e.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("core: text index %q: %w", name, ErrExists)
	}

	if len(opts.Spec.Components) == 0 && opts.SpecName != "" {
		spec, ok := e.Spec(opts.SpecName)
		if !ok {
			return nil, fmt.Errorf("core: %w: no score spec registered under %q", ErrInvalidRequest, opts.SpecName)
		}
		opts.Spec = spec
	}

	tbl, err := e.db.Table(table)
	if err != nil {
		return nil, err
	}
	colIdx, err := tbl.Schema().ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	if tbl.Schema().Columns[colIdx].Kind != relation.KindString {
		return nil, fmt.Errorf("core: %w: column %q of table %q is not a text column", ErrInvalidRequest, column, table)
	}

	sv, err := view.NewScoreView(e.db, table, opts.Spec)
	if err != nil {
		return nil, err
	}

	cfg := index.Config{
		Pool:           e.db.Pool(),
		ThresholdRatio: opts.ThresholdRatio,
		ChunkRatio:     opts.ChunkRatio,
		MinChunkSize:   opts.MinChunkSize,
		FancyListSize:  opts.FancyListSize,
	}
	if opts.Method == "" {
		opts.Method = MethodChunk
	}
	method, err := index.New(string(opts.Method), cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrInvalidRequest, err)
	}

	ti := &TextIndex{
		name:     name,
		table:    table,
		column:   column,
		specName: opts.SpecName,
		cfg:      cfg,
		engine:   e,
		view:     sv,
		method:   method,
	}

	// The build evaluates the spec once per document, straight into the
	// method's Score table.  A failing score component fails the create, and
	// a failed create keeps nothing: the pages it built go back.
	src := &tableDocSource{table: tbl, colIdx: colIdx, analyzer: e.analyzer}
	var scoreErr error
	err = method.Build(src, func(doc index.DocID) float64 {
		if scoreErr != nil {
			return 0
		}
		var s float64
		s, scoreErr = sv.Compute(int64(doc))
		return clampScore(s)
	})
	if err = errors.Join(scoreErr, err); err != nil {
		return nil, errors.Join(err, method.ReleasePages(), method.Drain())
	}
	// Write the build's dirty pages back in one ordered sweep rather than
	// letting them dribble out in LRU eviction order.
	if err := e.db.Pool().FlushOrdered(); err != nil {
		return nil, err
	}

	// Incremental maintenance: structured-value changes flow through the
	// view into score updates; document lifecycle events flow into the
	// Appendix A maintenance paths; text edits flow into content updates.
	sv.OnScoreChange(ti.onScoreChange)
	if err := sv.Attach(); err != nil {
		return nil, err
	}
	ti.baseHook = tbl.OnChange(ti.onBaseRowChange)

	e.mu.Lock()
	e.indexes[name] = ti
	e.mu.Unlock()

	// A durable engine checkpoints the freshly built index immediately: the
	// build is the most expensive thing the engine ever does, and an
	// un-checkpointed build would be lost to a crash before the first batch
	// (the crash lands on the previous catalog, so the index is fully absent
	// rather than half-built).  commitUpTo also covers (and wakes) any
	// group-commit waiters queued behind the build.
	if err := e.commitUpTo(e.batchSeq); err != nil {
		return nil, err
	}
	return ti, nil
}

// DropTextIndex removes a text index from a live engine: the index is
// deregistered, its maintenance listeners detached, in-flight searches
// drained (a search that raced the drop either completes against the last
// published snapshot or reports not-found — never a half-removed index),
// and every page its structures occupied — the method's trees (the Score
// table among them: the view keeps no pages of its own), its long-list and
// fancy-list blobs and its dictionary chain — returns to the pagefile free
// list.  On a durable engine the drop commits atomically: a crash
// anywhere inside it recovers to the index fully present or fully absent.
func (e *Engine) DropTextIndex(name string) error {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("core: %w", ErrClosed)
	}
	e.mu.Lock()
	ti, ok := e.indexes[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("core: no text index named %q: %w", name, relation.ErrNotFound)
	}
	delete(e.indexes, name)
	e.mu.Unlock()

	// Detach maintenance: the view stops listening to its dependency tables
	// and the base table stops feeding content updates.  A mutation already
	// mid-notification may deliver one final event; the fence below waits
	// out any write it triggers before the pages are released.
	ti.view.Detach()
	if tbl, err := e.db.Table(ti.table); err == nil {
		tbl.RemoveListener(ti.baseHook)
	}

	// Fence: wait out in-flight maintenance writes (writerMu) and searches
	// (rw), then mark the index dropped so stragglers fail fast with a
	// not-found error instead of touching released pages.
	ti.writerMu.Lock()
	ti.rw.Lock()
	ti.closed = true
	ti.dropped = true
	ti.rw.Unlock()
	ti.writerMu.Unlock()

	// Release the storage: retire every page of the method's structures,
	// then drain the epochs — any reader still pinned to the last snapshot
	// leaves first, after which all retired pages recycle onto the free list.
	var errs []error
	if err := ti.method.ReleasePages(); err != nil {
		errs = append(errs, fmt.Errorf("core: drop %q: release index pages: %w", name, err))
	}
	if err := ti.dict.release(e.db.Pool().File()); err != nil {
		errs = append(errs, fmt.Errorf("core: drop %q: release dictionary chain: %w", name, err))
	}
	if err := ti.method.Drain(); err != nil {
		errs = append(errs, fmt.Errorf("core: drop %q: drain: %w", name, err))
	}
	if err := ti.MaintenanceErr(); err != nil {
		errs = append(errs, fmt.Errorf("core: drop %q: %w", name, err))
	}
	// Durable engines persist the drop (and the freed pages) atomically;
	// commitUpTo also wakes any group-commit waiters queued behind the drop.
	if err := e.commitUpTo(e.batchSeq); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// TextIndex returns a previously created index by name.
func (e *Engine) TextIndex(name string) (*TextIndex, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ti, ok := e.indexes[name]
	if !ok {
		return nil, fmt.Errorf("core: no text index named %q: %w", name, relation.ErrNotFound)
	}
	return ti, nil
}

// TextIndexNames lists the created indexes in sorted order.
func (e *Engine) TextIndexNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.indexes))
	for n := range e.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// textIndexes returns the registered indexes in name order.  Everything that
// walks them to write — batch flushes, the close-time drain — goes through
// here: the indexes share one page file, so the order they allocate and free
// in decides which page IDs each gets, and with it the bytes a commit logs.
// A fixed order makes both repeatable for a given history.
func (e *Engine) textIndexes() []*TextIndex {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*TextIndex, 0, len(e.indexes))
	for _, ti := range e.indexes {
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// clampScore enforces the paper's assumption that SVR scores are
// non-negative and finite; out-of-domain aggregates are clamped rather than
// let loose into the index:
//
//   - NaN maps to 0.  (A plain `s < 0` check passes NaN through, and a NaN
//     score poisons the B+-tree: the order-preserving float encoding would
//     place it unpredictably and every comparison against it is false, so
//     score updates could neither find nor remove the old posting.)
//   - Negative values and -0 map to +0, so the codec produces the canonical
//     zero key.
//   - +Inf maps to MaxFloat64, keeping early-termination bounds finite.
func clampScore(s float64) float64 {
	if math.IsNaN(s) || s <= 0 {
		return 0
	}
	if math.IsInf(s, 1) {
		return math.MaxFloat64
	}
	return s
}

// --- maintenance plumbing ------------------------------------------------------

func (ti *TextIndex) recordErr(err error) {
	if err == nil {
		return
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if len(ti.maintenanceErrs) >= maxMaintenanceErrs {
		ti.droppedErrs++
		return
	}
	ti.maintenanceErrs = append(ti.maintenanceErrs, err)
}

// MaintenanceErr returns the accumulated incremental-maintenance errors, if
// any.  A healthy index returns nil.  At most maxMaintenanceErrs errors are
// retained; when more occurred, the joined error ends with a summary of how
// many were dropped.
func (ti *TextIndex) MaintenanceErr() error {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if len(ti.maintenanceErrs) == 0 {
		return nil
	}
	errs := ti.maintenanceErrs
	if ti.droppedErrs > 0 {
		errs = append(append([]error(nil), errs...),
			fmt.Errorf("core: %d further maintenance errors dropped (only the first %d are retained)", ti.droppedErrs, maxMaintenanceErrs))
	}
	return errors.Join(errs...)
}

// ClearMaintenanceErr discards the accumulated maintenance errors and the
// dropped-error count, so an index whose failure cause has been repaired
// (for example by MergeShortLists rebuilding its structures) can report
// healthy again.
func (ti *TextIndex) ClearMaintenanceErr() {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	ti.maintenanceErrs = nil
	ti.droppedErrs = 0
}

// onScoreChange reacts to Score view changes (Algorithm 1's entry point).  The
// view forwards every re-evaluated score, changed or not; the method's Score
// table is what it is compared against, and a ScoreOp with an equal score is
// dropped there.  A score the view could not evaluate is a maintenance
// error: the index goes on serving the document's previous score and says
// so.
func (ti *TextIndex) onScoreChange(c view.ScoreChange) {
	doc := index.DocID(c.Doc)
	switch {
	case c.Err != nil:
		ti.recordErr(c.Err)
	case c.Deleted:
		// The row is already gone from the relation: its tokens come from the
		// change, so the index can uncount and purge the document's terms.
		tokens, err := ti.rowTokens(c.Old)
		if err != nil {
			ti.recordErr(err)
		}
		ti.queue(index.Update{Op: index.DeleteOp, Doc: doc, OldTokens: tokens})
	case c.Inserted:
		row, err := ti.baseRow(c.Doc)
		if err != nil {
			ti.recordErr(err)
			return
		}
		tokens, err := ti.rowTokens(row)
		if err != nil {
			ti.recordErr(err)
			return
		}
		ti.queue(index.Update{Op: index.InsertOp, Doc: doc, Tokens: tokens, Score: clampScore(c.New)})
	default:
		ti.queue(index.Update{Op: index.ScoreOp, Doc: doc, Score: clampScore(c.New)})
	}
}

// writeLocked runs fn holding the writer mutex: maintenance writes serialize
// against each other, while searches keep running against the last published
// snapshot and flip to fn's result atomically when the method publishes.  It
// honours the close fence — a maintenance write that acquires the mutex
// after Engine.Close has drained must not touch the flushed, audited, closed
// storage underneath.
func (ti *TextIndex) writeLocked(fn func() error) error {
	ti.writerMu.Lock()
	defer ti.writerMu.Unlock()
	if ti.closed {
		return fmt.Errorf("core: text index %q: %w", ti.name, ErrClosed)
	}
	return fn()
}

// queue appends one change event to the maintenance queue.  Outside
// ApplyBatch the notifying goroutine flushes the queue at once, recording
// any error; inside a batch the batch's end flushes it.
func (ti *TextIndex) queue(u index.Update) {
	ti.mu.Lock()
	ti.pending = append(ti.pending, u)
	batching := ti.batching
	ti.mu.Unlock()
	if !batching {
		ti.recordErr(ti.flush())
	}
}

// flush applies the queued events through the method's batched write
// pipeline.  The writer mutex is taken *before* the queue is swapped out:
// whichever flush swaps a later event out also applies it after every
// earlier event has been applied, so a newer event can never overtake an
// older one (which would permanently diverge a content diff).
func (ti *TextIndex) flush() error {
	ti.writerMu.Lock()
	defer ti.writerMu.Unlock()
	ti.mu.Lock()
	ops := ti.pending
	ti.pending = nil
	ti.mu.Unlock()
	if len(ops) == 0 {
		return nil
	}
	if ti.closed {
		return fmt.Errorf("core: text index %q: %w, %d updates dropped", ti.name, ErrClosed, len(ops))
	}
	return ti.method.ApplyUpdates(ops)
}

// beginBatch holds queued events back until flushBatch.
func (ti *TextIndex) beginBatch() {
	ti.mu.Lock()
	ti.batching = true
	ti.mu.Unlock()
}

// flushBatch ends batch mode and flushes everything the batch queued.
func (ti *TextIndex) flushBatch() error {
	ti.mu.Lock()
	ti.batching = false
	ti.mu.Unlock()
	return ti.flush()
}

// ApplyBatch runs fn — typically a burst of structured-data mutations —
// with index maintenance deferred: the score and content changes fn
// produces are queued per text index and applied through one
// Method.ApplyUpdates call per index when fn returns, instead of one call
// per change.  The final index states are identical to flushing each change
// as it happens (what a mutation outside ApplyBatch does), with two
// documented nuances:
//
//   - searches issued inside fn see the index as of the batch's start,
//     since maintenance has not been applied yet;
//   - a deferred score update that ends up crossing its method's rewrite
//     threshold reads the document's tokens at flush time, not at event
//     time, so a batch that scores and then edits/deletes the same row
//     writes that document's short-list postings from the end-of-batch
//     content (query results stay correct either way — Theorems 1 and 2
//     hold for any staleness — but TermScore weights can differ from the
//     change-by-change interleaving).  Capturing tokens per deferred score
//     change would tokenize every updated document and forfeit the batching
//     win, so the batch trades that equivalence edge for throughput.
//
// Errors from fn and from the flushes are joined; the flush runs even if
// fn panics, so the indexes never stay in deferred mode.
//
// ApplyBatch calls serialize against each other (batches from concurrent
// goroutines apply one after another, each atomically); fn must not call
// ApplyBatch recursively.
//
// On a durable engine, concurrent callers group-commit: a batch that sees
// further batches queued behind it defers its pagefile Commit to one of
// them and waits for that covering commit instead of issuing its own, so N
// concurrent ApplyBatch calls — the write fan-in of an N-shard cluster in
// particular — cost far fewer than N fsync pairs.  Durability is unchanged:
// ApplyBatch still only returns once a commit covering its writes is on
// disk (pagefile.Commit persists every staged page, so a successor's commit
// carries its predecessors' pages).  The group size is bounded so a steady
// stream of writers cannot defer commits indefinitely.
func (e *Engine) ApplyBatch(fn func() error) (err error) {
	return e.ApplyBatchChecked(nil, fn)
}

// ApplyBatchChecked is ApplyBatch with an admission check: pre (if non-nil)
// runs under the batch lock after the closed check but before any mutation
// or index batching begins.  If pre fails, the batch is rejected atomically
// — fn never runs, no table row moves, no index event queues, and nothing
// commits.  The tenant quota path uses this: pre inspects current usage
// (stable under the batch lock, since every mutation path holds it) against
// the batch's projected footprint, so an over-quota batch from one tenant
// bounces without disturbing batches from any other tenant queued behind it.
func (e *Engine) ApplyBatchChecked(pre func() error, fn func() error) (err error) {
	e.commitWaiters.Add(1)
	e.batchMu.Lock()
	e.commitWaiters.Add(-1)
	// waitSeq != 0 means this batch deferred its commit; after batchMu is
	// released the final deferred func below blocks until a successor's
	// commit covers it.
	var waitSeq uint64
	defer func() {
		if waitSeq != 0 {
			if cerr := e.waitForCommit(waitSeq); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
	}()
	defer e.batchMu.Unlock()
	if e.closed.Load() {
		// The engine-level fence: without it, a batch that lost the race
		// against Close would run fn's base-table mutations against closed
		// storage (past the flush and pin audit) and only the index flush
		// afterwards would report the closed error.
		return fmt.Errorf("core: %w", ErrClosed)
	}
	if pre != nil {
		if err := pre(); err != nil {
			return err
		}
	}
	indexes := e.textIndexes()
	for _, ti := range indexes {
		ti.beginBatch()
	}
	defer func() {
		errs := []error{err}
		for _, ti := range indexes {
			errs = append(errs, ti.flushBatch())
		}
		// Durable engines commit the whole batch — base-table pages, index
		// pages and the refreshed catalog — as one atomic WAL transaction;
		// when ApplyBatch returns, the batch either survives any crash or
		// (on commit error) is reported failed.  With other callers queued,
		// the commit is left to one of them (group commit) and waited for
		// outside the batch lock.
		if e.durable {
			e.batchSeq++
			if e.commitWaiters.Load() > 0 && e.batchSeq-e.committedSeq() < maxCommitGroup {
				waitSeq = e.batchSeq
			} else {
				errs = append(errs, e.commitUpTo(e.batchSeq))
			}
		}
		err = errors.Join(errs...)
	}()
	return fn()
}

// maxCommitGroup bounds how many batches one pagefile Commit may cover.
// Without the bound, a steady stream of arriving writers would let every
// batch defer to its successor and no commit would ever run.
const maxCommitGroup = 32

// commitUpTo runs commitDurable and records that every batch up to seq is
// covered, waking deferred ApplyBatch callers.  Caller must hold batchMu.
func (e *Engine) commitUpTo(seq uint64) error {
	err := e.commitDurable()
	e.commitMu.Lock()
	if seq > e.commitSeq {
		e.commitSeq = seq
		e.commitErr = err
	}
	e.commitMu.Unlock()
	e.commitCond.Broadcast()
	return err
}

// committedSeq reports the newest batch sequence covered by a finished
// commit.
func (e *Engine) committedSeq() uint64 {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return e.commitSeq
}

// waitForCommit blocks until a commit covering batch seq has finished and
// returns that commit's error.  (If several commits land before the waiter
// wakes, the error reported is the newest one's — a failure there is
// over-reported to older batches, never under-reported, since a failed
// covering commit always records its error before waking anyone.)
func (e *Engine) waitForCommit(seq uint64) error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	for e.commitSeq < seq {
		e.commitCond.Wait()
	}
	return e.commitErr
}

// onBaseRowChange reacts to text-column edits on the indexed relation.
func (ti *TextIndex) onBaseRowChange(c relation.Change) {
	if c.Kind != relation.ChangeUpdate || c.Old == nil || c.New == nil {
		return
	}
	tbl, err := ti.engine.db.Table(ti.table)
	if err != nil {
		ti.recordErr(err)
		return
	}
	colIdx, err := tbl.Schema().ColumnIndex(ti.column)
	if err != nil {
		ti.recordErr(err)
		return
	}
	oldText := c.Old[colIdx].S
	newText := c.New[colIdx].S
	if oldText == newText {
		return
	}
	oldTokens := ti.engine.analyzer.Tokenize(oldText)
	newTokens := ti.engine.analyzer.Tokenize(newText)
	ti.queue(index.Update{Op: index.ContentOp, Doc: index.DocID(c.PK), OldTokens: oldTokens, NewTokens: newTokens})
}

// baseRow reads one row of the indexed relation.
func (ti *TextIndex) baseRow(pk int64) (relation.Row, error) {
	tbl, err := ti.engine.db.Table(ti.table)
	if err != nil {
		return nil, err
	}
	return tbl.Get(pk)
}

// rowTokens tokenizes the indexed text column of a row of the indexed
// relation.
func (ti *TextIndex) rowTokens(row relation.Row) ([]string, error) {
	tbl, err := ti.engine.db.Table(ti.table)
	if err != nil {
		return nil, err
	}
	colIdx, err := tbl.Schema().ColumnIndex(ti.column)
	if err != nil {
		return nil, err
	}
	return ti.engine.analyzer.Tokenize(row[colIdx].S), nil
}

// --- search --------------------------------------------------------------------

// SearchRequest is a keyword search against one text index.
type SearchRequest struct {
	// Query is the raw query text; it is analyzed with the engine's analyzer.
	Query string
	// K is the number of results wanted (the paper's FETCH TOP k).
	K int
	// Disjunctive selects OR semantics; the default is AND.
	Disjunctive bool
	// WithTermScores combines TF-IDF term scores with the SVR score
	// (requires a TermScore method).
	WithTermScores bool
	// LoadRows also fetches the full base-table rows of the results.
	LoadRows bool
	// Global, when set, overrides the collection statistics behind IDF with
	// cluster-wide values (total documents, per-term df summed over every
	// shard).  server.Router fills it so each shard ranks with the same idf a
	// single engine over the whole corpus would use; DF must align with the
	// distinct analyzed terms of Query, which TermStats produces for the
	// same query text.
	Global *index.GlobalStats
}

// SearchHit is one ranked document.
type SearchHit struct {
	// PK is the primary key of the base-table row.
	PK int64
	// Score is the ranking score (SVR or combined).
	Score float64
	// Row is the base-table row when SearchRequest.LoadRows is set.
	Row relation.Row
}

// SearchResult carries the hits plus the work counters of the underlying
// query algorithm.
type SearchResult struct {
	Hits            []SearchHit
	PostingsScanned int
	Stopped         bool
	// Partial marks a scatter-gather result that is missing one or more
	// shards' contributions (the shards were down or timed out).  A
	// single-engine Search never sets it.
	Partial bool
}

// Search runs a keyword query and returns the top-k rows ranked by the
// latest structured-value scores.
//
// Search is safe to call from many goroutines concurrently and never blocks
// behind maintenance: the top-k evaluation runs entirely against the
// method's published snapshot (pinning its epoch so superseded pages stay
// valid), so a search observes the index either before or after a write
// batch, never mid-flight, without waiting for the batch.  The only lock
// held is the read side of the shutdown fence, whose write side only
// Engine.Close takes.
func (ti *TextIndex) Search(req SearchRequest) (*SearchResult, error) {
	if req.K < 1 {
		return nil, fmt.Errorf("core: %w: k = %d must be positive", ErrInvalidRequest, req.K)
	}
	terms := ti.engine.analyzer.Tokenize(req.Query)
	if len(terms) == 0 {
		return nil, fmt.Errorf("core: %w: query contains no indexable terms", ErrInvalidRequest)
	}
	terms = text.DistinctTerms(terms)
	ti.rw.RLock()
	defer ti.rw.RUnlock()
	if ti.closed {
		if ti.dropped {
			// The index was dropped while this search raced it: report
			// not-found (the caller's 404), not a shutdown error — the
			// engine is alive, the index just no longer exists.
			return nil, fmt.Errorf("core: no text index named %q: %w", ti.name, relation.ErrNotFound)
		}
		return nil, fmt.Errorf("core: text index %q: %w", ti.name, ErrClosed)
	}
	qr, err := ti.method.TopK(index.Query{
		Terms:          terms,
		K:              req.K,
		Disjunctive:    req.Disjunctive,
		WithTermScores: req.WithTermScores,
		Global:         req.Global,
	})
	if err != nil {
		return nil, err
	}
	res := &SearchResult{PostingsScanned: qr.PostingsScanned, Stopped: qr.Stopped}
	res.Hits = make([]SearchHit, len(qr.Results))
	for i, r := range qr.Results {
		res.Hits[i] = SearchHit{PK: r.Doc, Score: r.Score}
	}
	if req.LoadRows && len(qr.Results) > 0 {
		// Join the ranked IDs back to the base rows in one batch so the
		// probes hit the row tree in key order.  The ranked IDs come from
		// the pinned snapshot while the join reads the live table, so a
		// concurrent batch can land between ranking and join: a hit whose
		// row the batch deleted joins to a nil Row, and base-table
		// mutations inside Engine.ApplyBatch commit before the index flush
		// either way.  Callers using LoadRows concurrently with writes must
		// treat a nil Row as "deleted since ranking".
		tbl, err := ti.engine.db.Table(ti.table)
		if err != nil {
			return nil, err
		}
		pks := make([]int64, len(qr.Results))
		for i, r := range qr.Results {
			pks[i] = r.Doc
		}
		rows, err := tbl.GetMany(pks)
		if err != nil {
			return nil, err
		}
		for i, row := range rows {
			res.Hits[i].Row = row
		}
	}
	return res, nil
}

// TermStats analyzes query exactly like Search and reports the index's
// collection statistics for the resulting terms: the snapshot document
// count and each term's document frequency.  A cluster sums these across
// shards into the index.GlobalStats it passes back via SearchRequest.Global
// — tokenization is deterministic, so every shard (and the eventual Search
// calls) derives the same term list from the same query text and the df
// vector stays aligned.
func (ti *TextIndex) TermStats(query string) (numDocs int64, df []int64, err error) {
	terms := ti.engine.analyzer.Tokenize(query)
	if len(terms) == 0 {
		return 0, nil, fmt.Errorf("core: %w: query contains no indexable terms", ErrInvalidRequest)
	}
	terms = text.DistinctTerms(terms)
	ti.rw.RLock()
	defer ti.rw.RUnlock()
	if ti.closed {
		if ti.dropped {
			return 0, nil, fmt.Errorf("core: no text index named %q: %w", ti.name, relation.ErrNotFound)
		}
		return 0, nil, fmt.Errorf("core: text index %q: %w", ti.name, ErrClosed)
	}
	return ti.method.TermStats(terms)
}

// TermStats looks up the named text index and reports its collection
// statistics for the query's analyzed terms (see TextIndex.TermStats).
func (e *Engine) TermStats(name, query string) (int64, []int64, error) {
	ti, err := e.TextIndex(name)
	if err != nil {
		return 0, nil, err
	}
	return ti.TermStats(query)
}

// Name returns the index name.
func (ti *TextIndex) Name() string { return ti.name }

// Table returns the name of the indexed base table.
func (ti *TextIndex) Table() string { return ti.table }

// Column returns the name of the indexed text column.
func (ti *TextIndex) Column() string { return ti.column }

// Method returns the underlying index method (exposed for benchmarks and
// diagnostics).
func (ti *TextIndex) Method() index.Method { return ti.method }

// View returns the Score view that maintains this index's Score table.
func (ti *TextIndex) View() *view.ScoreView { return ti.view }

// Stats returns the underlying index statistics.  It is lock-free for the
// caller: the method snapshots its structure sizes from the published
// snapshot under an epoch guard, so a stats scrape returns promptly even
// while a long ApplyBatch or merge holds the writer mutex.  After
// Engine.Close (once the method is drained) it returns a zero-valued Stats
// bar the method name instead of walking trees over a closed page file.
func (ti *TextIndex) Stats() index.Stats {
	return ti.method.Stats()
}

// MergeShortLists runs the periodic offline merge on the underlying index:
// the long inverted lists are rebuilt from the current scores and contents
// and the short lists emptied.  Deployments run this during maintenance
// windows; the paper excludes it from the measured update costs (§5.1).
// The merge holds only the writer mutex: searches keep serving the
// pre-merge snapshot for its whole duration and flip to the merged index
// atomically when it publishes.
func (ti *TextIndex) MergeShortLists() error {
	return ti.writeLocked(func() error { return ti.method.MergeShortLists() })
}

// ScoreOf returns the SVR score of a document as the index holds it: one
// epoch-pinned, lock-free read of the method's published Score table, the
// materialized Score view.  That is the indexed score — the spec's aggregate
// clamped to the non-negative finite domain (clampScore) — and, like a
// Search, it is the published one: inside an ApplyBatch closure it still
// reports the pre-batch score.  ok is false for a document the index has
// never seen or has deleted.
func (ti *TextIndex) ScoreOf(pk int64) (float64, bool, error) {
	return ti.method.ScoreOf(index.DocID(pk))
}

// --- document source over a relation --------------------------------------------

// tableDocSource adapts a relational table's text column to index.DocSource.
type tableDocSource struct {
	table    *relation.Table
	colIdx   int
	analyzer *text.Analyzer
}

func (s *tableDocSource) NumDocs() int { return s.table.Len() }

func (s *tableDocSource) ForEach(fn func(doc postings.DocID, tokens []string) error) error {
	var innerErr error
	err := s.table.Scan(func(row relation.Row) bool {
		tokens := s.analyzer.Tokenize(row[s.colIdx].S)
		if innerErr = fn(postings.DocID(row[0].I), tokens); innerErr != nil {
			return false
		}
		return true
	})
	if innerErr != nil {
		return innerErr
	}
	return err
}

func (s *tableDocSource) Tokens(doc postings.DocID) ([]string, error) {
	row, err := s.table.Get(int64(doc))
	if err != nil {
		return nil, err
	}
	return s.analyzer.Tokenize(row[s.colIdx].S), nil
}
