package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"svrdb/internal/index"
	"svrdb/internal/relation"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
	"svrdb/internal/view"
)

// catalogVersion is bumped when the catalog encoding changes.  Version 2
// split the single catalog chain into an anchor and per-index dictionary
// chains; version 3 dropped the Score view's own tree (the method's Score
// table is the materialized view).  Older files are refused at Open: there is
// no migration reader.
const catalogVersion = 3

// chainRef locates a page chain in the file: its head page and the length of
// the bytes it holds.
type chainRef struct {
	Head pagefile.PageID
	Len  int
}

// catalogIndexEntry records one text index in the anchor: its identity, the
// knobs to rebuild its Config, the name its score spec is registered under
// (the spec itself holds Go functions and cannot be serialized), the roots
// and counts of its method structures, and where its dictionary chain lives.
type catalogIndexEntry struct {
	Name     string
	Table    string
	Column   string
	SpecName string

	ThresholdRatio float64
	ChunkRatio     float64
	MinChunkSize   int
	FancyListSize  int

	Method index.MethodAnchor
	// Dict is the chain holding the gob-encoded index.MethodDict as of
	// generation Method.DictGen.
	Dict chainRef
}

// catalog is the anchor: the gob-encoded snapshot of the small navigational
// state that moves with every batch — table schemas and tree roots, each
// method's roots and counts.  It is rewritten at every commit and its chain
// head travels in the page file's header meta, so anchor and data become
// visible atomically.  The bulky state a score update never touches (term →
// blob maps, the dictionary, token caches) lives in one dictionary chain per
// index, rewritten only when the method says it changed.
type catalog struct {
	Version int
	Tables  []relation.TableState
	Indexes []catalogIndexEntry
	Tenants map[string]TenantQuota
}

// --- page chains ---------------------------------------------------------------
//
// A chain slices a byte string across singly linked ordinary pages:
// [8 next page (InvalidPageID ends the chain)][4 payload length][payload].
// Rewriting a chain reuses its pages in order, so the file does not grow from
// checkpointing and a rewrite that changes little changes few bytes of each
// page.  Chains are written and read directly against the pagefile (never
// through the buffer pool): their pages are touched once per commit at most
// and would only pollute the LRU.

const chainHeaderSize = 12

// pageChain is a chain as the engine tracks it between commits.
type pageChain struct {
	pages  []pagefile.PageID
	length int
}

func (c *pageChain) ref() chainRef {
	head := pagefile.InvalidPageID
	if len(c.pages) > 0 {
		head = c.pages[0]
	}
	return chainRef{Head: head, Len: c.length}
}

// write replaces the chain's contents with data, allocating or freeing pages
// at its tail as the length requires.  The durable backend stages every write
// until Commit, so overwriting the committed chain in place is safe: a crash
// before the commit point recovers the previous contents intact.
func (c *pageChain) write(file pagefile.File, data []byte) error {
	pageSize := file.PageSize()
	payload := pageSize - chainHeaderSize
	if payload <= 0 {
		return fmt.Errorf("core: page size %d too small for a catalog chain", pageSize)
	}
	nPages := max(1, (len(data)+payload-1)/payload)
	for len(c.pages) < nPages {
		id, err := file.Allocate()
		if err != nil {
			return err
		}
		c.pages = append(c.pages, id)
	}
	for len(c.pages) > nPages {
		last := len(c.pages) - 1
		if err := file.Free(c.pages[last]); err != nil {
			return err
		}
		c.pages = c.pages[:last]
	}
	page := make([]byte, pageSize)
	for i, id := range c.pages {
		next := pagefile.InvalidPageID
		if i+1 < nPages {
			next = c.pages[i+1]
		}
		lo := min(i*payload, len(data))
		hi := min(lo+payload, len(data))
		clear(page)
		binary.LittleEndian.PutUint64(page[0:8], uint64(next))
		binary.LittleEndian.PutUint32(page[8:12], uint32(hi-lo))
		copy(page[chainHeaderSize:], data[lo:hi])
		if err := file.Write(id, page); err != nil {
			return err
		}
	}
	c.length = len(data)
	return nil
}

// release frees every page of the chain.
func (c *pageChain) release(file pagefile.File) error {
	for _, id := range c.pages {
		if err := file.Free(id); err != nil {
			return err
		}
	}
	*c = pageChain{}
	return nil
}

// readChain walks the chain at ref and reassembles its bytes, returning them
// along with the chain (so a later commit can rewrite it).
func readChain(file pagefile.File, ref chainRef) ([]byte, pageChain, error) {
	var (
		c     = pageChain{length: ref.Len}
		page  = make([]byte, file.PageSize())
		limit = int(file.NumPages()) + 1
	)
	if ref.Len < 0 || ref.Len/len(page) > limit {
		return nil, c, fmt.Errorf("core: catalog chain claims %d bytes in a file of %d pages", ref.Len, limit-1)
	}
	out := make([]byte, 0, ref.Len)
	for id := ref.Head; id != pagefile.InvalidPageID; {
		if len(c.pages) >= limit {
			return nil, c, errors.New("core: catalog chain contains a cycle")
		}
		if err := file.Read(id, page); err != nil {
			return nil, c, fmt.Errorf("core: read catalog page %d: %w", id, err)
		}
		c.pages = append(c.pages, id)
		n := int(binary.LittleEndian.Uint32(page[8:12]))
		if n > len(page)-chainHeaderSize {
			return nil, c, fmt.Errorf("core: catalog page %d claims %d payload bytes", id, n)
		}
		out = append(out, page[chainHeaderSize:chainHeaderSize+n]...)
		id = pagefile.PageID(binary.LittleEndian.Uint64(page[0:8]))
	}
	if len(out) != ref.Len {
		return nil, c, fmt.Errorf("core: catalog chain holds %d bytes, its reference says %d", len(out), ref.Len)
	}
	return out, c, nil
}

// metaBytes encodes the header meta: the anchor chain's head and length.
func metaBytes(ref chainRef) []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out[0:8], uint64(ref.Head))
	binary.LittleEndian.PutUint64(out[8:16], uint64(ref.Len))
	return out
}

func parseMeta(meta []byte) (chainRef, error) {
	if len(meta) != 16 {
		return chainRef{}, fmt.Errorf("core: malformed catalog meta of %d bytes", len(meta))
	}
	return chainRef{
		Head: pagefile.PageID(binary.LittleEndian.Uint64(meta[0:8])),
		Len:  int(binary.LittleEndian.Uint64(meta[8:16])),
	}, nil
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// --- commit -------------------------------------------------------------------

// stageCatalog writes the engine's navigational state into its chains: every
// index's dictionary chain whose generation moved, then the anchor.  The
// caller holds batchMu, so no batch is mid-flight; each index is additionally
// snapshotted under its writer mutex so an eager maintenance write cannot
// interleave.  Searches are not excluded — they read the published snapshot
// and never move navigational state.
func (e *Engine) stageCatalog(file pagefile.File) error {
	cat := &catalog{Version: catalogVersion, Tenants: e.tenantQuotas()}
	for _, name := range e.db.TableNames() {
		tbl, err := e.db.Table(name)
		if err != nil {
			continue
		}
		cat.Tables = append(cat.Tables, tbl.State())
	}
	for _, ti := range e.textIndexes() {
		entry, err := e.stageIndex(file, ti)
		if err != nil {
			return fmt.Errorf("core: write dictionary of index %q: %w", ti.name, err)
		}
		cat.Indexes = append(cat.Indexes, entry)
	}
	data, err := gobBytes(cat)
	if err != nil {
		return fmt.Errorf("core: encode catalog: %w", err)
	}
	if err := e.anchor.write(file, data); err != nil {
		return fmt.Errorf("core: write catalog: %w", err)
	}
	e.anchorBytes.Store(int64(len(data)))
	return nil
}

// CatalogStats reports the encoded size of the catalog anchor as last staged
// and how many dictionary chains commits have rewritten since the engine was
// opened; both are zero for an in-memory engine.
func (e *Engine) CatalogStats() (anchorBytes int64, dictionaryRewrites uint64) {
	return e.anchorBytes.Load(), e.dictRewrites.Load()
}

// stageIndex snapshots one index for the anchor, first rewriting its
// dictionary chain if the method's dictionary generation has moved since the
// chain was written.
func (e *Engine) stageIndex(file pagefile.File, ti *TextIndex) (catalogIndexEntry, error) {
	ti.writerMu.Lock()
	defer ti.writerMu.Unlock()
	anchor := ti.method.Anchor()
	if len(ti.dict.pages) == 0 || anchor.DictGen != ti.dictGen {
		data, err := gobBytes(ti.method.Dictionary())
		if err != nil {
			return catalogIndexEntry{}, err
		}
		if err := ti.dict.write(file, data); err != nil {
			return catalogIndexEntry{}, err
		}
		ti.dictGen = anchor.DictGen
		e.dictRewrites.Add(1)
	}
	return catalogIndexEntry{
		Name:           ti.name,
		Table:          ti.table,
		Column:         ti.column,
		SpecName:       ti.specName,
		ThresholdRatio: ti.cfg.ThresholdRatio,
		ChunkRatio:     ti.cfg.ChunkRatio,
		MinChunkSize:   ti.cfg.MinChunkSize,
		FancyListSize:  ti.cfg.FancyListSize,
		Method:         anchor,
		Dict:           ti.dict.ref(),
	}, nil
}

// commitDurable checkpoints the engine into its durable page file: flush
// every dirty page, stage the catalog, and commit — one atomic WAL
// transaction covering data, catalog and header.  It is a no-op for
// in-memory engines.  The caller must hold batchMu (ApplyBatch and Close
// already do).
func (e *Engine) commitDurable() error {
	if !e.durable {
		return nil
	}
	pool := e.db.Pool()
	if err := pool.FlushOrdered(); err != nil {
		return err
	}
	file := pool.File()
	if err := e.stageCatalog(file); err != nil {
		return err
	}
	return file.Commit(metaBytes(e.anchor.ref()))
}

// --- open ---------------------------------------------------------------------

// OpenOptions configures Open.
type OpenOptions struct {
	// Analyzer tokenizes text columns; nil installs the default analyzer.
	// It must match the analyzer the file was built with, or restored
	// indexes will tokenize maintenance traffic differently than the build.
	Analyzer *text.Analyzer
	// Specs maps spec names (IndexOptions.SpecName) to score specifications.
	// Score specs hold Go functions and cannot live in the file; every index
	// recorded in the catalog must find its spec here by name.
	Specs map[string]view.Spec
	// PoolPages sizes the buffer pool (default 4096 pages).
	PoolPages int
	// PageSize sets the page size when creating a new file; opening an
	// existing file with a different page size is an error.  Zero accepts
	// the file's (or the disk default for a new file).
	PageSize int
}

// Open creates or opens a durable engine at path.  A fresh file yields an
// empty engine whose first commit initializes the catalog; an existing file
// is recovered to its last committed state (the pagefile replays its WAL)
// and every table, view and text index is reattached without rebuilding —
// opening is proportional to catalog size, not data size.
//
// Every ApplyBatch against a durable engine commits atomically on return,
// and Close writes a final checkpoint, so kill -9 at any point loses at
// most the batch in flight.
func Open(path string, opts OpenOptions) (*Engine, error) {
	var fileOpts []pagefile.Option
	if opts.PageSize > 0 {
		fileOpts = append(fileOpts, pagefile.WithPageSize(opts.PageSize))
	}
	file, err := pagefile.Open(path, fileOpts...)
	if err != nil {
		return nil, err
	}
	e, err := openFromFile(file, opts)
	if err != nil {
		file.Close()
		return nil, err
	}
	return e, nil
}

// openFromFile builds the engine over an already-opened (and recovered)
// durable file; split out so crash-point tests can inject faults through
// pagefile.Open themselves.
func openFromFile(file pagefile.File, opts OpenOptions) (*Engine, error) {
	poolPages := opts.PoolPages
	if poolPages <= 0 {
		poolPages = 4096
	}
	pool, err := buffer.New(file, poolPages)
	if err != nil {
		return nil, err
	}
	db := relation.NewDB(pool)
	e := NewEngine(db, Options{Analyzer: opts.Analyzer})
	e.durable = true
	// Seed the engine's spec registry from the open options so indexes
	// created online after this open (POST /v1/indexes) resolve the same
	// spec names the restored catalog uses.
	for name, spec := range opts.Specs {
		e.RegisterSpec(name, spec)
	}

	if len(file.Meta()) == 0 {
		// Fresh file: nothing to restore.
		return e, nil
	}
	ref, err := parseMeta(file.Meta())
	if err != nil {
		return nil, err
	}
	data, anchor, err := readChain(file, ref)
	if err != nil {
		return nil, err
	}
	var cat catalog
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cat); err != nil {
		return nil, fmt.Errorf("core: decode catalog: %w", err)
	}
	if cat.Version != catalogVersion {
		return nil, fmt.Errorf("core: catalog version %d not supported (this build reads version %d only; rebuild the file)", cat.Version, catalogVersion)
	}
	e.anchor = anchor
	e.anchorBytes.Store(int64(len(data)))
	e.restoreTenants(cat.Tenants)

	for _, ts := range cat.Tables {
		if _, err := db.RestoreTable(ts); err != nil {
			return nil, fmt.Errorf("core: restore table %q: %w", ts.Schema.Name, err)
		}
	}
	for _, ent := range cat.Indexes {
		if err := e.restoreTextIndex(ent, opts.Specs); err != nil {
			return nil, fmt.Errorf("core: restore index %q: %w", ent.Name, err)
		}
	}
	return e, nil
}

// restoreTextIndex reattaches one text index from its catalog entry: restore
// the method (its Score table is the materialized view), create the score
// view over the registered spec, rewire the document source and the
// incremental-maintenance listeners.
func (e *Engine) restoreTextIndex(ent catalogIndexEntry, specs map[string]view.Spec) error {
	spec, ok := specs[ent.SpecName]
	if !ok {
		return fmt.Errorf("no spec registered under name %q (OpenOptions.Specs)", ent.SpecName)
	}
	tbl, err := e.db.Table(ent.Table)
	if err != nil {
		return err
	}
	colIdx, err := tbl.Schema().ColumnIndex(ent.Column)
	if err != nil {
		return err
	}

	sv, err := view.NewScoreView(e.db, ent.Table, spec)
	if err != nil {
		return err
	}
	data, dict, err := readChain(e.db.Pool().File(), ent.Dict)
	if err != nil {
		return err
	}
	state := index.MethodState{MethodAnchor: ent.Method}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&state.MethodDict); err != nil {
		return fmt.Errorf("decode dictionary: %w", err)
	}
	cfg := index.Config{
		Pool:           e.db.Pool(),
		ThresholdRatio: ent.ThresholdRatio,
		ChunkRatio:     ent.ChunkRatio,
		MinChunkSize:   ent.MinChunkSize,
		FancyListSize:  ent.FancyListSize,
	}
	method, err := index.Restore(cfg, state)
	if err != nil {
		return err
	}
	method.SetSource(&tableDocSource{table: tbl, colIdx: colIdx, analyzer: e.analyzer})

	ti := &TextIndex{
		name:     ent.Name,
		table:    ent.Table,
		column:   ent.Column,
		specName: ent.SpecName,
		cfg:      cfg,
		engine:   e,
		view:     sv,
		method:   method,
		dict:     dict,
		dictGen:  ent.Method.DictGen,
	}
	sv.OnScoreChange(ti.onScoreChange)
	if err := sv.Attach(); err != nil {
		return err
	}
	ti.baseHook = tbl.OnChange(ti.onBaseRowChange)

	e.mu.Lock()
	e.indexes[ent.Name] = ti
	e.mu.Unlock()
	return nil
}
