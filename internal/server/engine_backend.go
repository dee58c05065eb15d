package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"svrdb/internal/core"
	"svrdb/internal/index"
	"svrdb/internal/relation"
)

// EngineBackend serves a shard from a core.Engine in this process: every
// method is the engine-side body of one route, with no HTTP in it.  Requests
// fan straight into the engine's goroutine-safe entry points
// (TextIndex.Search, Engine.ApplyBatch), so the backend adds JSON row binding
// and quota admission but no locking of its own.
type EngineBackend struct {
	label  string
	engine *core.Engine
	// ownsEngine: Close closes the engine only if this backend owns it (New,
	// svrserve's in-process shards), not when the caller shares the engine
	// with other front ends.
	ownsEngine bool
}

// NewEngineBackend wraps an engine as a shard backend.  When ownsEngine is
// true, closing the backend closes the engine.
func NewEngineBackend(label string, engine *core.Engine, ownsEngine bool) *EngineBackend {
	return &EngineBackend{label: label, engine: engine, ownsEngine: ownsEngine}
}

func (b *EngineBackend) Label() string { return b.label }

// Search runs a canonical request (see Backend.Search) on the engine and
// renders the result, resolving rows through the index's base table schema
// when requested.
func (b *EngineBackend) Search(ctx context.Context, index string, req SearchRequest) (*SearchResponse, error) {
	ti, err := b.engine.TextIndex(index)
	if err != nil {
		return nil, notFoundBackendErr("index", index, err)
	}
	res, err := ti.Search(coreSearchRequest(req))
	if err != nil {
		return nil, err
	}
	resp := &SearchResponse{
		Hits:            make([]SearchHit, len(res.Hits)),
		PostingsScanned: res.PostingsScanned,
		Stopped:         res.Stopped,
		Partial:         res.Partial,
	}
	var schema relation.Schema
	if req.LoadRows {
		if tbl, err := b.engine.DB().Table(ti.Table()); err == nil {
			schema = tbl.Schema()
		}
	}
	for i, h := range res.Hits {
		resp.Hits[i] = SearchHit{PK: h.PK, Score: h.Score}
		if h.Row != nil && len(schema.Columns) > 0 {
			resp.Hits[i].Row = rowToJSON(schema, h.Row)
		}
	}
	return resp, nil
}

// coreSearchRequest translates the JSON DTO into the engine's request type.
func coreSearchRequest(req SearchRequest) core.SearchRequest {
	creq := core.SearchRequest{
		Query:          req.Query,
		K:              req.K,
		Disjunctive:    req.Disjunctive,
		WithTermScores: req.WithTermScores,
		LoadRows:       req.LoadRows,
	}
	if req.Global != nil {
		creq.Global = &index.GlobalStats{NumDocs: req.Global.NumDocs, DF: req.Global.DF}
	}
	return creq
}

func (b *EngineBackend) TermStats(ctx context.Context, index, query string) (*TermStatsResponse, error) {
	ti, err := b.engine.TextIndex(index)
	if err != nil {
		return nil, notFoundBackendErr("index", index, err)
	}
	numDocs, df, err := ti.TermStats(query)
	if err != nil {
		return nil, err
	}
	return &TermStatsResponse{NumDocs: numDocs, DF: df}, nil
}

func (b *EngineBackend) Schema(ctx context.Context, table string) (*SchemaResponse, error) {
	tbl, err := b.engine.DB().Table(table)
	if err != nil {
		return nil, notFoundBackendErr("table", table, err)
	}
	schema := tbl.Schema()
	resp := &SchemaResponse{Table: table, Columns: make([]SchemaColumn, len(schema.Columns))}
	for i, col := range schema.Columns {
		kind := "string"
		switch col.Kind {
		case relation.KindInt64:
			kind = "int64"
		case relation.KindFloat64:
			kind = "float64"
		}
		resp.Columns[i] = SchemaColumn{Name: col.Name, Kind: kind}
	}
	return resp, nil
}

// InsertRows decodes and inserts rows through one ApplyBatch.  Decode errors
// surface as ErrInvalidRequest, which the front end maps to 400.
func (b *EngineBackend) InsertRows(ctx context.Context, table string, jsonRows []map[string]json.RawMessage) error {
	e := b.engine
	tbl, err := e.DB().Table(table)
	if err != nil {
		return err
	}
	rows := make([]relation.Row, len(jsonRows))
	for i, obj := range jsonRows {
		row, err := rowFromJSON(tbl.Schema(), obj)
		if err != nil {
			return fmt.Errorf("%w: row %d: %s", core.ErrInvalidRequest, i, err)
		}
		rows[i] = row
	}
	// One ApplyBatch per request: the rows' index maintenance flushes
	// through the batched write pipeline instead of one tree round-trip
	// per row.  Rows are schema-validated above, but a runtime failure
	// (e.g. a duplicate primary key) has no rollback — rows before the
	// failing one stay inserted, and the error names where the batch
	// stopped.  The quota pre-check runs under the batch lock before any
	// mutation: an over-quota insert batch rejects atomically.
	var pre func() error
	if tenant := core.TenantOf(table); tenant != "" {
		var addBytes int64
		for _, row := range rows {
			addBytes += int64(core.EncodedRowSize(row))
		}
		pre = func() error {
			return e.CheckTenantQuota(tenant, int64(len(rows)), addBytes)
		}
	}
	return e.ApplyBatchChecked(pre, func() error {
		for i, row := range rows {
			if err := tbl.Insert(row); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
}

// Batch binds and applies a batch of ops.  Matched counts the ops that found
// a row (inserts always match; ignore_missing updates and deletes of absent
// rows do not).
func (b *EngineBackend) Batch(ctx context.Context, ops []BatchOp) (*BatchResponse, error) {
	e := b.engine
	// Schema-validate and bind every op before mutating anything, so a
	// malformed op (unknown table/column, wrong type, unknown op kind)
	// rejects the batch before any write.  Runtime failures inside the
	// batch (duplicate primary key, update/delete of a missing row) are a
	// different matter: the engine has no rollback, so ops before the
	// failing one stay applied and the error names the op that stopped the
	// batch — clients must treat a non-2xx as "applied up to the named op".
	matched := 0
	bound := make([]boundOp, len(ops))
	metered := false
	for i, op := range ops {
		bo, err := bindOp(e, op, &matched)
		if err != nil {
			if !errors.Is(err, relation.ErrNotFound) {
				err = fmt.Errorf("%w: %s", core.ErrInvalidRequest, err)
			}
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		bound[i] = bo
		metered = metered || bo.tenant != ""
	}
	// Quota admission: under the batch lock (where no other batch can move
	// usage), sum every metered tenant's projected row/byte delta and check
	// it against its quota.  A failing check rejects the whole batch before
	// any op runs, so one tenant's over-quota batch never half-applies and
	// never disturbs other tenants' batches queued behind it.
	var pre func() error
	if metered {
		pre = func() error {
			type delta struct{ rows, bytes int64 }
			perTenant := map[string]*delta{}
			for _, bo := range bound {
				if bo.tenant == "" {
					continue
				}
				rows, bytes := bo.delta()
				d := perTenant[bo.tenant]
				if d == nil {
					d = &delta{}
					perTenant[bo.tenant] = d
				}
				d.rows += rows
				d.bytes += bytes
			}
			for tenant, d := range perTenant {
				if err := e.CheckTenantQuota(tenant, d.rows, d.bytes); err != nil {
					return err
				}
			}
			return nil
		}
	}
	err := e.ApplyBatchChecked(pre, func() error {
		for i, bo := range bound {
			if err := bo.apply(); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &BatchResponse{Applied: len(ops), Matched: matched}, nil
}

// boundOp is one schema-validated batch op: the closure that applies it,
// plus — for ops on tenant-namespaced tables — the tenant it is metered
// against and a delta function projecting its row/byte footprint change.
// delta is only called under the batch lock, where the rows it reads cannot
// move before apply runs.
type boundOp struct {
	apply  func() error
	tenant string
	delta  func() (rows, bytes int64)
}

// bindOp resolves one batch op against the schema and returns the closure
// that applies it.  matched is incremented by the closure when the op finds
// its target row.
func bindOp(e *core.Engine, op BatchOp, matched *int) (boundOp, error) {
	tbl, err := e.DB().Table(op.Table)
	if err != nil {
		return boundOp{}, err
	}
	b := boundOp{tenant: core.TenantOf(op.Table)}
	switch op.Op {
	case "insert":
		if op.Row == nil {
			return boundOp{}, errors.New("insert requires \"row\"")
		}
		row, err := rowFromJSON(tbl.Schema(), op.Row)
		if err != nil {
			return boundOp{}, err
		}
		b.delta = func() (int64, int64) { return 1, int64(core.EncodedRowSize(row)) }
		b.apply = func() error {
			if err := tbl.Insert(row); err != nil {
				return err
			}
			*matched++
			return nil
		}
		return b, nil
	case "update":
		if op.PK == nil {
			return boundOp{}, errors.New("update requires \"pk\"")
		}
		if len(op.Set) == 0 {
			return boundOp{}, errors.New("update requires a non-empty \"set\"")
		}
		set, err := setFromJSON(tbl.Schema(), op.Set)
		if err != nil {
			return boundOp{}, err
		}
		pk, ignore := *op.PK, op.IgnoreMissing
		b.delta = func() (int64, int64) {
			old, err := tbl.Get(pk)
			if err != nil {
				return 0, 0
			}
			updated := applySet(tbl.Schema(), old, set)
			return 0, int64(core.EncodedRowSize(updated)) - int64(core.EncodedRowSize(old))
		}
		b.apply = func() error {
			err := tbl.Update(pk, set)
			if err == nil {
				*matched++
				return nil
			}
			if ignore && errors.Is(err, relation.ErrNotFound) {
				return nil
			}
			return err
		}
		return b, nil
	case "delete":
		if op.PK == nil {
			return boundOp{}, errors.New("delete requires \"pk\"")
		}
		pk, ignore := *op.PK, op.IgnoreMissing
		b.delta = func() (int64, int64) {
			old, err := tbl.Get(pk)
			if err != nil {
				return 0, 0
			}
			return -1, -int64(core.EncodedRowSize(old))
		}
		b.apply = func() error {
			err := tbl.Delete(pk)
			if err == nil {
				*matched++
				return nil
			}
			if ignore && errors.Is(err, relation.ErrNotFound) {
				return nil
			}
			return err
		}
		return b, nil
	default:
		return boundOp{}, fmt.Errorf("unknown op %q (want insert, update or delete)", op.Op)
	}
}

// applySet projects an update onto a copy of a row, for quota byte-delta
// estimation; unknown columns were already rejected by setFromJSON.
func applySet(schema relation.Schema, old relation.Row, set map[string]relation.Value) relation.Row {
	updated := make(relation.Row, len(old))
	copy(updated, old)
	for name, v := range set {
		if idx, err := schema.ColumnIndex(name); err == nil && idx < len(updated) {
			updated[idx] = v
		}
	}
	return updated
}

// CreateIndex validates a creation request, builds the index and reports it
// with the method the engine resolved (an empty "method" selects chunk).
func (b *EngineBackend) CreateIndex(ctx context.Context, req CreateIndexRequest) (*CreateIndexResponse, error) {
	if req.Name == "" || req.Table == "" || req.Column == "" {
		return nil, fmt.Errorf("%w: \"name\", \"table\" and \"column\" are required", core.ErrInvalidRequest)
	}
	if req.Spec == "" {
		return nil, fmt.Errorf("%w: \"spec\" must name a registered score spec (one of %v)",
			core.ErrInvalidRequest, b.engine.SpecNames())
	}
	ti, err := b.engine.CreateTextIndex(req.Name, req.Table, req.Column, core.IndexOptions{
		Method:         core.MethodKind(req.Method),
		SpecName:       req.Spec,
		ThresholdRatio: req.ThresholdRatio,
		ChunkRatio:     req.ChunkRatio,
		MinChunkSize:   req.MinChunkSize,
		FancyListSize:  req.FancyListSize,
	})
	if err != nil {
		if errors.Is(err, relation.ErrNotFound) {
			return nil, notFoundBackendErr("table", req.Table, err)
		}
		return nil, err
	}
	return &CreateIndexResponse{Name: req.Name, Table: req.Table, Column: req.Column, Method: ti.Method().Name()}, nil
}

func (b *EngineBackend) DropIndex(ctx context.Context, name string) error {
	if err := b.engine.DropTextIndex(name); err != nil {
		if errors.Is(err, relation.ErrNotFound) {
			return notFoundBackendErr("index", name, err)
		}
		return err
	}
	return nil
}

// CreateTenant registers the tenant and, on durable engines, persists the
// registration immediately through an empty batch (the catalog commit rides
// the batch path), so a quota survives a crash that follows it.
func (b *EngineBackend) CreateTenant(ctx context.Context, req CreateTenantRequest) (*TenantStatus, error) {
	quota := core.TenantQuota{MaxRows: req.MaxRows, MaxBytes: req.MaxBytes}
	if err := b.engine.CreateTenant(req.Name, quota); err != nil {
		return nil, err
	}
	if err := b.engine.ApplyBatch(func() error { return nil }); err != nil {
		return nil, err
	}
	st := b.tenantStatus(req.Name)
	return &st, nil
}

func (b *EngineBackend) Tenants(ctx context.Context) ([]TenantStatus, error) {
	names := b.engine.TenantNames()
	out := make([]TenantStatus, len(names))
	for i, n := range names {
		out[i] = b.tenantStatus(n)
	}
	return out, nil
}

func (b *EngineBackend) tenantStatus(name string) TenantStatus {
	quota, _ := b.engine.TenantQuotaOf(name)
	usage := b.engine.TenantUsageOf(name)
	return TenantStatus{
		Name:     name,
		MaxRows:  quota.MaxRows,
		MaxBytes: quota.MaxBytes,
		Rows:     usage.Rows,
		Bytes:    usage.Bytes,
	}
}

// changeStreamBuffer bounds each subscriber's queue.  The table's listener
// enqueues without blocking: a subscriber slower than the write rate loses
// events and is told so via a lagged marker, rather than ever stalling the
// engine's commit-ordered notification path.
const changeStreamBuffer = 256

// Changes subscribes to the table's commit-ordered notifications and hands
// each to emit from the calling goroutine.
func (b *EngineBackend) Changes(ctx context.Context, table string, subscribed func(), emit func(ChangeEvent) error) error {
	tbl, err := b.engine.DB().Table(table)
	if err != nil {
		return notFoundBackendErr("table", table, err)
	}
	schema := tbl.Schema()
	ch := make(chan relation.Change, changeStreamBuffer)
	var lagged atomic.Bool
	handle := tbl.OnChange(func(c relation.Change) {
		select {
		case ch <- c:
		default:
			lagged.Store(true)
		}
	})
	defer tbl.RemoveListener(handle)
	subscribed()
	for {
		select {
		case <-ctx.Done():
			return nil
		case c := <-ch:
			if lagged.Swap(false) {
				if err := emit(ChangeEvent{Lagged: true}); err != nil {
					return err
				}
			}
			ev := ChangeEvent{Table: c.Table, PK: c.PK}
			switch c.Kind {
			case relation.ChangeInsert:
				ev.Kind = "insert"
			case relation.ChangeUpdate:
				ev.Kind = "update"
			case relation.ChangeDelete:
				ev.Kind = "delete"
			}
			if c.New != nil {
				ev.Row = rowToJSON(schema, c.New)
			}
			if err := emit(ev); err != nil {
				return err
			}
		}
	}
}

func (b *EngineBackend) Stats(ctx context.Context) (map[string]any, error) {
	return engineStatsPayload(b.engine), nil
}

// engineStatsPayload builds the engine half of the stats body: index,
// buffer-pool, pagefile and durability counters.  The Router serves it per
// shard under "shards", sums it into the top level and adds its own uptime,
// endpoint and tenant sections.
func engineStatsPayload(e *core.Engine) map[string]any {
	indexes := map[string]any{}
	for _, name := range e.TextIndexNames() {
		ti, err := e.TextIndex(name)
		if err != nil {
			continue
		}
		st := ti.Stats()
		ratio := 0.0
		if st.LongListBytes > 0 && st.LongListRawBytes > 0 {
			ratio = float64(st.LongListRawBytes) / float64(st.LongListBytes)
		}
		indexes[name] = map[string]any{
			"method":                      st.Method,
			"long_list_bytes":             st.LongListBytes,
			"long_list_raw_bytes":         st.LongListRawBytes,
			"compression_ratio":           ratio,
			"pages_read":                  st.PagesRead,
			"short_list_entries":          st.ShortListEntries,
			"score_updates":               st.ScoreUpdates,
			"short_list_postings_written": st.ShortListPostingsWritten,
			"long_list_postings_written":  st.LongListPostingsWritten,
			"queries":                     st.Queries,
			"postings_scanned":            st.PostingsScanned,
			"table_patches":               st.TablePatches,
			"epoch":                       st.Epoch,
			"active_readers":              st.ActiveReaders,
			"retained_pages":              st.RetainedPages,
		}
	}
	pool := e.Pool()
	ps := pool.Stats()
	fs := pool.File().Stats()
	anchorBytes, dictRewrites := e.CatalogStats()
	return map[string]any{
		"indexes": indexes,
		"pool": map[string]any{
			"hits":          ps.Hits,
			"misses":        ps.Misses,
			"evictions":     ps.Evictions,
			"flushes":       ps.Flushes,
			"over_releases": ps.OverReleases,
		},
		"pagefile": map[string]any{
			"reads":         fs.Reads,
			"writes":        fs.Writes,
			"allocs":        fs.Allocs,
			"frees":         fs.Frees,
			"reuses":        fs.Reuses,
			"bytes_read":    fs.BytesRead,
			"bytes_written": fs.BytesWritten,
		},
		"durability": map[string]any{
			"commits":    fs.Commits,
			"wal_bytes":  fs.WALBytes,
			"fsyncs":     fs.Fsyncs,
			"recoveries": fs.Recoveries,
			"torn_pages": fs.TornPages,
			// The catalog's share of a commit: the anchor is rewritten by
			// every one, an index's dictionary chain only after its terms or
			// documents changed.
			"catalog_anchor_bytes": anchorBytes,
			"dictionary_rewrites":  dictRewrites,
		},
	}
}

// Health reports the engine's close state; an in-process shard is down only
// once its engine is closed.
func (b *EngineBackend) Health(ctx context.Context) error {
	if b.engine.Closed() {
		return fmt.Errorf("engine closed: %w", core.ErrClosed)
	}
	return nil
}

func (b *EngineBackend) Close() error {
	if !b.ownsEngine {
		return nil
	}
	return b.engine.Close()
}

// --- rows as JSON ------------------------------------------------------------------

// rowToJSON renders a row as a column-name-keyed object.
func rowToJSON(schema relation.Schema, row relation.Row) map[string]any {
	obj := make(map[string]any, len(row))
	for i, v := range row {
		if i >= len(schema.Columns) {
			break
		}
		switch v.Kind {
		case relation.KindInt64:
			obj[schema.Columns[i].Name] = v.I
		case relation.KindFloat64:
			obj[schema.Columns[i].Name] = v.F
		default:
			obj[schema.Columns[i].Name] = v.S
		}
	}
	return obj
}

// rowFromJSON decodes a full row: every schema column must be present.
func rowFromJSON(schema relation.Schema, obj map[string]json.RawMessage) (relation.Row, error) {
	row := make(relation.Row, len(schema.Columns))
	for i, col := range schema.Columns {
		raw, ok := obj[col.Name]
		if !ok {
			return nil, fmt.Errorf("missing column %q", col.Name)
		}
		v, err := valueFromJSON(col, raw)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	if len(obj) > len(schema.Columns) {
		for name := range obj {
			if _, err := schema.ColumnIndex(name); err != nil {
				return nil, fmt.Errorf("unknown column %q", name)
			}
		}
	}
	return row, nil
}

// setFromJSON decodes an update's changed-column map.
func setFromJSON(schema relation.Schema, obj map[string]json.RawMessage) (map[string]relation.Value, error) {
	set := make(map[string]relation.Value, len(obj))
	for name, raw := range obj {
		idx, err := schema.ColumnIndex(name)
		if err != nil {
			return nil, err
		}
		v, err := valueFromJSON(schema.Columns[idx], raw)
		if err != nil {
			return nil, err
		}
		set[name] = v
	}
	return set, nil
}

// valueFromJSON decodes one cell according to its column kind.
func valueFromJSON(col relation.Column, raw json.RawMessage) (relation.Value, error) {
	switch col.Kind {
	case relation.KindInt64:
		var n json.Number
		if err := json.Unmarshal(raw, &n); err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want an integer: %w", col.Name, err)
		}
		i, err := n.Int64()
		if err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want an integer: %w", col.Name, err)
		}
		return relation.Int(i), nil
	case relation.KindFloat64:
		var n json.Number
		if err := json.Unmarshal(raw, &n); err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want a number: %w", col.Name, err)
		}
		f, err := n.Float64()
		if err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want a number: %w", col.Name, err)
		}
		return relation.Float(f), nil
	case relation.KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return relation.Value{}, fmt.Errorf("column %q: want a string: %w", col.Name, err)
		}
		return relation.Str(s), nil
	default:
		return relation.Value{}, fmt.Errorf("column %q: unsupported kind", col.Name)
	}
}
