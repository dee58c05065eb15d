package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"svrdb/internal/codec"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// Kind enumerates the column types supported by the substrate.
type Kind uint8

const (
	// KindInt64 is a 64-bit signed integer column.
	KindInt64 Kind = iota + 1
	// KindFloat64 is a double-precision floating point column.
	KindFloat64
	// KindString is a variable-length string column (also used for text
	// documents; the text analyzer tokenizes it).
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema describes a table: an ordered list of columns, the first of which
// must be the INT64 primary key.
type Schema struct {
	Name    string
	Columns []Column
}

// ErrNoSuchColumn is returned when a column name is not part of a schema.
var ErrNoSuchColumn = errors.New("relation: no such column")

// ErrNotFound is wrapped into lookup errors for absent rows and absent
// tables; the wrapping error says which.
var ErrNotFound = errors.New("relation: not found")

// ErrDuplicateKey is returned when inserting a row whose primary key exists.
var ErrDuplicateKey = errors.New("relation: duplicate primary key")

// ErrIndexExists is returned by CreateIndex when the column already has a
// secondary index (EnsureIndex treats it as success).
var ErrIndexExists = errors.New("relation: index already exists")

// ColumnIndex returns the position of the named column.
func (s Schema) ColumnIndex(name string) (int, error) {
	for i, c := range s.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, name, s.Name)
}

// Validate checks the structural rules for a schema.
func (s Schema) Validate() error {
	if s.Name == "" {
		return errors.New("relation: schema must have a name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relation: table %q has no columns", s.Name)
	}
	if s.Columns[0].Kind != KindInt64 {
		return fmt.Errorf("relation: table %q: first column %q must be the INT64 primary key", s.Name, s.Columns[0].Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relation: table %q has an unnamed column", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relation: table %q has duplicate column %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		switch c.Kind {
		case KindInt64, KindFloat64, KindString:
		default:
			return fmt.Errorf("relation: table %q column %q has invalid kind %d", s.Name, c.Name, c.Kind)
		}
	}
	return nil
}

// Value is a single typed cell.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Int returns an INT64 value.
func Int(v int64) Value { return Value{Kind: KindInt64, I: v} }

// Float returns a DOUBLE value.
func Float(v float64) Value { return Value{Kind: KindFloat64, F: v} }

// Str returns a VARCHAR value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// AsFloat converts numeric values to float64 (strings convert to 0).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt64:
		return float64(v.I)
	case KindFloat64:
		return v.F
	default:
		return 0
	}
}

// AsInt converts numeric values to int64 (strings convert to 0).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt64:
		return v.I
	case KindFloat64:
		return int64(v.F)
	default:
		return 0
	}
}

// String implements fmt.Stringer for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindInt64:
		return fmt.Sprintf("%d", v.I)
	case KindFloat64:
		return fmt.Sprintf("%g", v.F)
	case KindString:
		return v.S
	default:
		return "<nil>"
	}
}

// Row is an ordered tuple matching a schema.
type Row []Value

// EncodedRowSize reports the storage-encoding size of a row in bytes — the
// same figure Table.Bytes accumulates per row, exposed so quota admission
// checks can project a batch's byte delta before mutating anything.  It is
// the size of the row's self-describing encoding (a column count, then a kind
// byte and a varint, 8-byte float or length-prefixed string per column), kept
// as the metering unit whatever layout the table stores the row in.
func EncodedRowSize(r Row) int {
	var buf [binary.MaxVarintLen64]byte
	n := len(binary.AppendUvarint(buf[:0], uint64(len(r))))
	for _, v := range r {
		n++
		switch v.Kind {
		case KindInt64:
			n += len(binary.AppendVarint(buf[:0], v.I))
		case KindFloat64:
			n += 8
		case KindString:
			n += len(binary.AppendUvarint(buf[:0], uint64(len(v.S)))) + len(v.S)
		}
	}
	return n
}

// --- row layout --------------------------------------------------------------
//
// A table stores each row in two B+-trees keyed by the same primary key.  The
// row tree's value is the row's fixed-width columns (KindInt64 and
// KindFloat64, the pk included) in schema order, 8 bytes apiece; the string
// tree's value is its KindString columns in schema order, each length-
// prefixed.  A table whose schema has no string column has no string tree.
// The split follows the schema alone, and it exists for update locality: a
// score update rewrites 8 bytes of a row-tree leaf shared by a hundred-odd
// rows and never touches the page holding the row's text.

// hasStrings reports whether the schema has a KindString column, i.e.
// whether its table keeps a string tree.
func (s Schema) hasStrings() bool {
	for _, c := range s.Columns {
		if c.Kind == KindString {
			return true
		}
	}
	return false
}

// encodeFixed serializes the row's fixed-width columns: the row-tree value.
func encodeFixed(r Row) []byte {
	out := make([]byte, 0, 8*len(r))
	for _, v := range r {
		switch v.Kind {
		case KindInt64:
			out = codec.PutUint64(out, uint64(v.I))
		case KindFloat64:
			out = codec.PutFloat64(out, v.F)
		}
	}
	return out
}

// encodeStrings serializes the row's string columns: the string-tree value.
func encodeStrings(r Row) []byte {
	out := make([]byte, 0, 32)
	for _, v := range r {
		if v.Kind == KindString {
			out = codec.PutString(out, v.S)
		}
	}
	return out
}

// joinRow rebuilds a row from its row-tree and string-tree values (strs is
// nil for a schema without string columns).  Each value must hold exactly
// the columns the schema puts in it.
func (t *Table) joinRow(fixed, strs []byte) (Row, error) {
	row := make(Row, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		row[i].Kind = c.Kind
		switch c.Kind {
		case KindInt64, KindFloat64:
			x, n, err := codec.Uint64(fixed)
			if err != nil {
				return nil, fmt.Errorf("relation: table %q column %q: %w", t.schema.Name, c.Name, err)
			}
			fixed = fixed[n:]
			if c.Kind == KindInt64 {
				row[i].I = int64(x)
			} else {
				row[i].F = math.Float64frombits(x)
			}
		case KindString:
			s, n, err := codec.String(strs)
			if err != nil {
				return nil, fmt.Errorf("relation: table %q column %q: %w", t.schema.Name, c.Name, err)
			}
			strs = strs[n:]
			row[i].S = s
		}
	}
	if len(fixed) != 0 || len(strs) != 0 {
		return nil, fmt.Errorf("relation: table %q: %w: %d trailing bytes after the row", t.schema.Name, codec.ErrCorrupt, len(fixed)+len(strs))
	}
	return row, nil
}

// errTreesDisagree reports a key one of the table's two trees holds and the
// other does not.
func (t *Table) errTreesDisagree(key []byte) error {
	return fmt.Errorf("relation: table %q: %w: row tree and string tree disagree at key %x", t.schema.Name, codec.ErrCorrupt, key)
}

// ChangeKind describes what happened to a row.
type ChangeKind uint8

const (
	// ChangeInsert indicates a new row was inserted.
	ChangeInsert ChangeKind = iota + 1
	// ChangeUpdate indicates an existing row was modified.
	ChangeUpdate
	// ChangeDelete indicates a row was removed.
	ChangeDelete
)

// Change is delivered to table listeners after a mutation commits.
type Change struct {
	Table string
	Kind  ChangeKind
	PK    int64
	// Old is nil for inserts; New is nil for deletes.
	Old Row
	New Row
}

// Listener receives change notifications.  Listeners are invoked
// synchronously after the mutation has been applied.
type Listener func(Change)

// ListenerHandle identifies a registered listener so it can be removed when
// its consumer (a dropped index, a disconnected change stream) goes away.
type ListenerHandle uint64

// Table stores rows of a single schema keyed by their primary key, in two
// B+-trees: the row tree holds the fixed-width columns and the string tree
// the strings (see "row layout" above).
//
// A Table is safe for concurrent use: readers (Get, GetMany, Scan,
// LookupByColumn) may run from any number of goroutines, and the mutating
// operations (Insert, Update, Delete) serialize against each other and
// against readers through rowMu.  Change listeners are invoked after the
// mutation's locks are released, so a listener may freely read the table
// (the search engine's maintenance callbacks do).  Scan and LookupByColumn
// visitors run under the read lock and must not mutate the table.
type Table struct {
	schema Schema
	rows   *btree.Tree // pk -> fixed-width columns
	strs   *btree.Tree // pk -> string columns; nil when the schema has none

	// rowMu guards the row and string trees and the secondary index trees: readers
	// share it, mutations take it exclusively.
	rowMu sync.RWMutex
	// Notification ordering: each mutation draws a ticket (notifySeq) while
	// still holding rowMu, then delivers its change when notifyNext reaches
	// its ticket — so listeners observe changes in exactly the order the
	// mutations committed (an out-of-order content diff would diverge the
	// text indexes permanently).  Deliveries wait for their turn holding no
	// lock, so listeners may freely read the table; they must not mutate
	// it (a mutating listener would wait forever for its own turn).
	notifySeq  uint64 // next ticket to hand out; guarded by rowMu
	notifyMu   sync.Mutex
	notifyCond sync.Cond // signals notifyNext advancing; uses notifyMu
	notifyNext uint64    // ticket currently allowed to deliver; guarded by notifyMu

	mu         sync.RWMutex
	secondary  map[string]*btree.Tree // column name -> (value, pk) index
	listeners  []registeredListener
	listenerID uint64
	pool       *buffer.Pool
	rowCount   int
	rowBytes   int64
}

// registeredListener pairs a listener with its removal handle; the slice
// preserves registration order, which notification delivery relies on.
type registeredListener struct {
	id ListenerHandle
	fn Listener
}

// NewTable creates an empty table for schema, storing rows in B+-trees over
// the supplied buffer pool.
func NewTable(pool *buffer.Pool, schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	rows, err := btree.New(pool)
	if err != nil {
		return nil, err
	}
	t := &Table{
		schema:    schema,
		rows:      rows,
		secondary: map[string]*btree.Tree{},
		pool:      pool,
	}
	if schema.hasStrings() {
		if t.strs, err = btree.New(pool); err != nil {
			return nil, err
		}
	}
	t.notifyCond.L = &t.notifyMu
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len reports the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowCount
}

// Bytes reports the encoded size of every live row, the figure byte quotas
// meter.  Tables restored from pre-quota catalogs start at zero and account
// from their first post-restore mutation.
func (t *Table) Bytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowBytes
}

// OnChange registers a listener for mutations on this table and returns a
// handle that RemoveListener accepts.
func (t *Table) OnChange(l Listener) ListenerHandle {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.listenerID++
	h := ListenerHandle(t.listenerID)
	t.listeners = append(t.listeners, registeredListener{id: h, fn: l})
	return h
}

// RemoveListener detaches a listener registered with OnChange.  A mutation
// already past its registration snapshot may still deliver one final change
// after RemoveListener returns; removing an unknown handle is a no-op.
func (t *Table) RemoveListener(h ListenerHandle) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, rl := range t.listeners {
		if rl.id == h {
			t.listeners = append(t.listeners[:i], t.listeners[i+1:]...)
			return
		}
	}
}

func (t *Table) notify(c Change) {
	t.mu.RLock()
	listeners := append([]registeredListener(nil), t.listeners...)
	t.mu.RUnlock()
	for _, l := range listeners {
		l.fn(c)
	}
}

func pkKey(pk int64) []byte {
	return codec.PutOrderedUint64(nil, uint64(pk))
}

// validateRow checks that the row matches the schema.
func (t *Table) validateRow(row Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("relation: table %q expects %d columns, got %d", t.schema.Name, len(t.schema.Columns), len(row))
	}
	for i, v := range row {
		if v.Kind != t.schema.Columns[i].Kind {
			return fmt.Errorf("relation: table %q column %q expects %s, got %s",
				t.schema.Name, t.schema.Columns[i].Name, t.schema.Columns[i].Kind, v.Kind)
		}
	}
	return nil
}

// commitAndNotify is the tail of every mutation: called with rowMu held, it
// draws the next notification ticket, releases rowMu, waits (holding no
// lock) until every earlier commit has delivered, delivers the change, and
// passes the turn on.
func (t *Table) commitAndNotify(c Change) {
	ticket := t.notifySeq
	t.notifySeq++
	t.rowMu.Unlock()

	t.notifyMu.Lock()
	for t.notifyNext != ticket {
		t.notifyCond.Wait()
	}
	t.notifyMu.Unlock()

	// Pass the turn on even if a listener panics — a wedged ticket would
	// block every later mutation on the table forever.
	defer func() {
		t.notifyMu.Lock()
		t.notifyNext++
		t.notifyCond.Broadcast()
		t.notifyMu.Unlock()
	}()
	t.notify(c)
}

// Insert adds a row.  The primary key must not already exist.
func (t *Table) Insert(row Row) error {
	if err := t.validateRow(row); err != nil {
		return err
	}
	pk := row[0].I
	t.rowMu.Lock()
	if err := t.insertLocked(pk, row); err != nil {
		t.rowMu.Unlock()
		return err
	}
	t.commitAndNotify(Change{Table: t.schema.Name, Kind: ChangeInsert, PK: pk, New: row})
	return nil
}

// insertLocked applies the insert to both trees; the caller holds rowMu.
func (t *Table) insertLocked(pk int64, row Row) error {
	key := pkKey(pk)
	if _, ok, err := t.rows.Get(key); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %d in table %q", ErrDuplicateKey, pk, t.schema.Name)
	}
	if _, err := t.rows.UpsertBatch([]btree.Item{{Key: key, Value: encodeFixed(row)}}); err != nil {
		return err
	}
	if t.strs != nil {
		if _, err := t.strs.UpsertBatch([]btree.Item{{Key: key, Value: encodeStrings(row)}}); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.rowCount++
	t.rowBytes += int64(EncodedRowSize(row))
	t.mu.Unlock()
	return t.reindexRow(nil, row)
}

// Get returns the row with the given primary key.
func (t *Table) Get(pk int64) (Row, error) {
	t.rowMu.RLock()
	defer t.rowMu.RUnlock()
	return t.getLocked(pk)
}

// getLocked is Get for callers already holding rowMu (either side).
func (t *Table) getLocked(pk int64) (Row, error) {
	fixed, strs, ok, err := t.readLocked(pk, nil, nil)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: pk %d in table %q", ErrNotFound, pk, t.schema.Name)
	}
	return t.joinRow(fixed, strs)
}

// readLocked looks pk up in both trees and returns its two values, appended
// to fixed and strs (scratch a caller may reuse from key to key, since
// joinRow copies what it keeps).  ok is false when the row is absent.  The
// caller holds rowMu.
func (t *Table) readLocked(pk int64, fixed, strs []byte) (_, _ []byte, ok bool, err error) {
	var buf [8]byte
	key := codec.PutOrderedUint64(buf[:0], uint64(pk))
	if fixed, ok, err = t.rows.View().Get(fixed[:0], key); err != nil || !ok {
		return fixed, strs, false, err
	}
	if t.strs != nil {
		if strs, ok, err = t.strs.View().Get(strs[:0], key); err != nil {
			return fixed, strs, false, err
		} else if !ok {
			return fixed, strs, false, t.errTreesDisagree(key)
		}
	}
	return fixed, strs, true, nil
}

// GetMany returns the rows for a batch of primary keys, aligned with pks; a
// missing key yields a nil Row instead of an error.  The probes are issued
// in ascending key order so that a ranked result set joins back to the base
// table with B+-tree page locality, then restored to the requested order.
func (t *Table) GetMany(pks []int64) ([]Row, error) {
	t.rowMu.RLock()
	defer t.rowMu.RUnlock()
	rows := make([]Row, len(pks))
	order := make([]int, len(pks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pks[order[a]] < pks[order[b]] })
	var fixed, strs []byte
	for _, i := range order {
		var ok bool
		var err error
		if fixed, strs, ok, err = t.readLocked(pks[i], fixed, strs); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		if rows[i], err = t.joinRow(fixed, strs); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Update replaces the named columns of the row with the given primary key.
func (t *Table) Update(pk int64, updates map[string]Value) error {
	t.rowMu.Lock()
	old, updated, err := t.updateLocked(pk, updates)
	if err != nil {
		t.rowMu.Unlock()
		return err
	}
	t.commitAndNotify(Change{Table: t.schema.Name, Kind: ChangeUpdate, PK: pk, Old: old, New: updated})
	return nil
}

// updateLocked applies the read-modify-write; the caller holds rowMu.  Only
// a tree one of whose columns changed value is written, so an update of
// fixed-width columns leaves the string tree untouched and the reverse.
func (t *Table) updateLocked(pk int64, updates map[string]Value) (old, updated Row, err error) {
	old, err = t.getLocked(pk)
	if err != nil {
		return nil, nil, err
	}
	updated = append(Row(nil), old...)
	var fixedChanged, strsChanged bool
	for name, v := range updates {
		idx, err := t.schema.ColumnIndex(name)
		if err != nil {
			return nil, nil, err
		}
		if idx == 0 {
			return nil, nil, fmt.Errorf("relation: table %q: primary key column cannot be updated", t.schema.Name)
		}
		if v.Kind != t.schema.Columns[idx].Kind {
			return nil, nil, fmt.Errorf("relation: table %q column %q expects %s, got %s",
				t.schema.Name, name, t.schema.Columns[idx].Kind, v.Kind)
		}
		// Floats compare by their bits, which is what the tree stores.
		if v.I != old[idx].I || v.S != old[idx].S || math.Float64bits(v.F) != math.Float64bits(old[idx].F) {
			fixedChanged = fixedChanged || v.Kind != KindString
			strsChanged = strsChanged || v.Kind == KindString
		}
		updated[idx] = v
	}
	if err := t.reindexRow(old, updated); err != nil {
		return nil, nil, err
	}
	key := pkKey(pk)
	if fixedChanged {
		if _, err := t.rows.UpsertBatch([]btree.Item{{Key: key, Value: encodeFixed(updated)}}); err != nil {
			return nil, nil, err
		}
	}
	if strsChanged {
		if _, err := t.strs.UpsertBatch([]btree.Item{{Key: key, Value: encodeStrings(updated)}}); err != nil {
			return nil, nil, err
		}
	}
	t.mu.Lock()
	t.rowBytes += int64(EncodedRowSize(updated)) - int64(EncodedRowSize(old))
	t.mu.Unlock()
	return old, updated, nil
}

// Delete removes the row with the given primary key.
func (t *Table) Delete(pk int64) error {
	t.rowMu.Lock()
	old, err := t.deleteLocked(pk)
	if err != nil {
		t.rowMu.Unlock()
		return err
	}
	t.commitAndNotify(Change{Table: t.schema.Name, Kind: ChangeDelete, PK: pk, Old: old})
	return nil
}

// deleteLocked applies the delete; the caller holds rowMu.
func (t *Table) deleteLocked(pk int64) (Row, error) {
	old, err := t.getLocked(pk)
	if err != nil {
		return nil, err
	}
	if err := t.reindexRow(old, nil); err != nil {
		return nil, err
	}
	key := pkKey(pk)
	if _, err := t.rows.DeleteBatch([][]byte{key}); err != nil {
		return nil, err
	}
	if t.strs != nil {
		if _, err := t.strs.DeleteBatch([][]byte{key}); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	t.rowCount--
	t.rowBytes -= int64(EncodedRowSize(old))
	t.mu.Unlock()
	return old, nil
}

// Scan visits every row in primary-key order.  Returning false from the
// visitor stops the scan.  The visitor runs under the table read lock and
// must not mutate the table.
func (t *Table) Scan(visit func(Row) bool) error {
	t.rowMu.RLock()
	defer t.rowMu.RUnlock()
	return t.ascendLocked(visit)
}

// ascendLocked visits every row in primary-key order, walking the row tree
// and the string tree with two cursors in lockstep: a scan is two ascents,
// not a lookup per row.  A key held by one tree only fails the scan.  The
// caller holds rowMu.
func (t *Table) ascendLocked(visit func(Row) bool) error {
	rows := t.rows.View().Cursor(nil, nil)
	defer rows.Close()
	var strs *btree.Cursor
	if t.strs != nil {
		strs = t.strs.View().Cursor(nil, nil)
		defer strs.Close()
	}
	for rows.More() {
		k, fixed := rows.Next()
		var sv []byte
		if strs != nil {
			if !strs.More() {
				return errors.Join(strs.Err(), t.errTreesDisagree(k))
			}
			var sk []byte
			if sk, sv = strs.Next(); !bytes.Equal(k, sk) {
				return t.errTreesDisagree(k)
			}
		}
		row, err := t.joinRow(fixed, sv)
		if err != nil {
			return err
		}
		if !visit(row) {
			return nil
		}
	}
	if err := rows.Err(); err != nil || strs == nil {
		return err
	}
	if strs.More() {
		sk, _ := strs.Next()
		return t.errTreesDisagree(sk)
	}
	return strs.Err()
}

// --- secondary indexes -------------------------------------------------------

// HasIndex reports whether a secondary index exists on the named column.
func (t *Table) HasIndex(column string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.secondary[column]
	return ok
}

// EnsureIndex creates a secondary index on the named column if one does not
// already exist.  It is safe to call concurrently: when two callers race,
// the loser's duplicate creation is treated as success.
func (t *Table) EnsureIndex(column string) error {
	if t.HasIndex(column) {
		return nil
	}
	if err := t.CreateIndex(column); err != nil && !errors.Is(err, ErrIndexExists) {
		return err
	}
	return nil
}

// CreateIndex builds a secondary index on the named column.  Existing rows
// are indexed immediately; subsequent mutations maintain the index.  The
// whole build runs under the exclusive row lock and the tree is published
// into t.secondary only after the backfill succeeds, so HasIndex and
// LookupByColumn never observe a half-built (or failed-and-discarded)
// index, and no mutation can slip between backfill and publish.
func (t *Table) CreateIndex(column string) error {
	idx, err := t.schema.ColumnIndex(column)
	if err != nil {
		return err
	}
	t.rowMu.Lock()
	defer t.rowMu.Unlock()
	t.mu.RLock()
	_, exists := t.secondary[column]
	t.mu.RUnlock()
	if exists {
		return fmt.Errorf("%w: on %q.%q", ErrIndexExists, t.schema.Name, column)
	}
	tree, err := btree.New(t.pool)
	if err != nil {
		return err
	}
	var items []btree.Item
	err = t.ascendLocked(func(row Row) bool {
		items = append(items, btree.Item{Key: secondaryKey(row[idx], row[0].I)})
		return true
	})
	if err != nil {
		return err
	}
	if _, err := tree.UpsertBatch(items); err != nil {
		return err
	}
	t.mu.Lock()
	t.secondary[column] = tree
	t.mu.Unlock()
	return nil
}

// secondaryKey builds an order-preserving (value, pk) composite key.
func secondaryKey(v Value, pk int64) []byte {
	key := make([]byte, 0, 24)
	switch v.Kind {
	case KindInt64:
		key = append(key, byte(KindInt64))
		key = codec.PutOrderedUint64(key, uint64(v.I)+(1<<63)) // shift so negatives sort first
	case KindFloat64:
		key = append(key, byte(KindFloat64))
		key = codec.PutOrderedFloat64(key, v.F)
	case KindString:
		key = append(key, byte(KindString))
		key = codec.PutOrderedString(key, v.S)
	}
	return codec.PutOrderedUint64(key, uint64(pk))
}

// reindexRow moves a row's secondary-index keys from old to updated, where
// a nil old is an insert and a nil updated a delete.  A column whose key is
// unchanged is left alone, so an update of an unindexed column writes no
// secondary tree.
func (t *Table) reindexRow(old, updated Row) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for col, tree := range t.secondary {
		idx, err := t.schema.ColumnIndex(col)
		if err != nil {
			return err
		}
		var oldKey, newKey []byte
		if old != nil {
			oldKey = secondaryKey(old[idx], old[0].I)
		}
		if updated != nil {
			newKey = secondaryKey(updated[idx], updated[0].I)
		}
		if bytes.Equal(oldKey, newKey) {
			continue
		}
		if oldKey != nil {
			if _, err := tree.DeleteBatch([][]byte{oldKey}); err != nil {
				return err
			}
		}
		if newKey != nil {
			if _, err := tree.UpsertBatch([]btree.Item{{Key: newKey}}); err != nil {
				return err
			}
		}
	}
	return nil
}

// LookupByColumn returns the rows whose named (indexed) column equals value.
// The column must have a secondary index.  The visitor runs under the table
// read lock and must not mutate the table.
func (t *Table) LookupByColumn(column string, value Value, visit func(Row) bool) error {
	t.mu.RLock()
	tree, ok := t.secondary[column]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("relation: no index on %q.%q", t.schema.Name, column)
	}
	t.rowMu.RLock()
	defer t.rowMu.RUnlock()
	prefix := secondaryKey(value, 0)
	// Strip the trailing pk portion (last 8 bytes) to form the value prefix.
	prefix = prefix[:len(prefix)-8]
	c := tree.View().Cursor(prefix, btree.PrefixEnd(prefix))
	defer c.Close()
	for c.More() {
		k, _ := c.Next()
		pk, _, err := codec.OrderedUint64(k[len(k)-8:])
		if err != nil {
			return err
		}
		row, err := t.getLocked(int64(pk))
		if err != nil {
			return err
		}
		if !visit(row) {
			return nil
		}
	}
	return c.Err()
}

// --- catalog -----------------------------------------------------------------

// DB is a named collection of tables sharing one buffer pool.
type DB struct {
	mu     sync.RWMutex
	pool   *buffer.Pool
	tables map[string]*Table
}

// NewDB creates an empty database over the given pool.
func NewDB(pool *buffer.Pool) *DB {
	return &DB{pool: pool, tables: map[string]*Table{}}
}

// Pool returns the buffer pool used by the database.
func (db *DB) Pool() *buffer.Pool { return db.pool }

// CreateTable creates a table with the given schema.
func (db *DB) CreateTable(schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[schema.Name]; exists {
		return nil, fmt.Errorf("relation: table %q already exists", schema.Name)
	}
	t, err := NewTable(db.pool, schema)
	if err != nil {
		return nil, err
	}
	db.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: no table named %q", ErrNotFound, name)
	}
	return t, nil
}

// TableNames lists the tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TreeState records one B+-tree's checkpoint anchor: its root page and key
// count, everything btree.Open needs to reattach.
type TreeState struct {
	Root pagefile.PageID
	Size int
}

// TableState is the serializable snapshot of a table's navigational state.
// The rows themselves live in pages; this captures where the trees start.
type TableState struct {
	Schema Schema
	// Tree is the row tree (the fixed-width columns); Strings the string
	// tree, the zero value for a schema without string columns.
	Tree      TreeState
	Strings   TreeState
	Secondary map[string]TreeState // column name -> secondary index tree
	// Bytes is the encoded-row footprint at checkpoint time, restored so
	// byte quotas keep metering across restarts.  Catalogs written before
	// the field existed decode it as zero.
	Bytes int64
}

// State snapshots the table for a checkpoint.  The caller must hold the
// engine's batch rung so no mutation is mid-flight.
func (t *Table) State() TableState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TableState{
		Schema: t.schema,
		Tree:   TreeState{Root: t.rows.RootPage(), Size: t.rows.Len()},
		Bytes:  t.rowBytes,
	}
	if t.strs != nil {
		st.Strings = TreeState{Root: t.strs.RootPage(), Size: t.strs.Len()}
	}
	if len(t.secondary) > 0 {
		st.Secondary = make(map[string]TreeState, len(t.secondary))
		for col, tr := range t.secondary {
			st.Secondary[col] = TreeState{Root: tr.RootPage(), Size: tr.Len()}
		}
	}
	return st
}

// Pages appends every page of the table's trees — the row tree, the string
// tree and the secondary index trees — to dst.  It reads their internal
// nodes (btree.Tree.AppendPages).
func (t *Table) Pages(dst []pagefile.PageID) ([]pagefile.PageID, error) {
	t.rowMu.RLock()
	defer t.rowMu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	trees := []*btree.Tree{t.rows}
	if t.strs != nil {
		trees = append(trees, t.strs)
	}
	for _, tr := range t.secondary {
		trees = append(trees, tr)
	}
	for _, tr := range trees {
		var err error
		if dst, err = tr.AppendPages(dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// RestoreTable reattaches a table to its checkpointed trees.  The table is
// registered in the database under its schema name.
func (db *DB) RestoreTable(st TableState) (*Table, error) {
	if err := st.Schema.Validate(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[st.Schema.Name]; exists {
		return nil, fmt.Errorf("relation: table %q already exists", st.Schema.Name)
	}
	t := &Table{
		schema:    st.Schema,
		rows:      btree.Open(db.pool, st.Tree.Root, st.Tree.Size),
		secondary: map[string]*btree.Tree{},
		pool:      db.pool,
		rowCount:  st.Tree.Size,
		rowBytes:  st.Bytes,
	}
	if st.Schema.hasStrings() {
		t.strs = btree.Open(db.pool, st.Strings.Root, st.Strings.Size)
	}
	for col, ts := range st.Secondary {
		if _, err := st.Schema.ColumnIndex(col); err != nil {
			return nil, err
		}
		t.secondary[col] = btree.Open(db.pool, ts.Root, ts.Size)
	}
	t.notifyCond.L = &t.notifyMu
	db.tables[st.Schema.Name] = t
	return t, nil
}
