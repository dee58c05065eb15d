package view

import (
	"errors"
	"fmt"
	"sync"

	"svrdb/internal/relation"
)

// Component is one scoring component: the equivalent of a SQL-bodied
// function S_i(Ck) returning a float for a primary key of the indexed
// relation.
type Component struct {
	// Name identifies the component in diagnostics.
	Name string
	// Eval computes the component score for the document with primary key pk.
	Eval func(db *relation.DB, pk int64) (float64, error)
	// DependsOn lists the base tables whose changes can affect this
	// component, and how rows of those tables map back to a document.
	DependsOn []Dependency
}

// Dependency states that changes to rows of Table affect the document whose
// primary key is stored in FKColumn of that table.  An empty FKColumn means
// the table's own primary key is the document key (the indexed relation
// itself).
type Dependency struct {
	Table    string
	FKColumn string
}

// Aggregator combines the component scores into the final SVR score.  It
// must be deterministic; the engine re-evaluates it on every refresh.
type Aggregator func(components []float64) float64

// WeightedSum returns an aggregator computing sum_i w_i * s_i, the shape of
// the paper's example Agg(s1,s2,s3) = s1*100 + s2/2 + s3.
func WeightedSum(weights ...float64) Aggregator {
	w := append([]float64(nil), weights...)
	return func(components []float64) float64 {
		total := 0.0
		for i, c := range components {
			if i < len(w) {
				total += w[i] * c
			} else {
				total += c
			}
		}
		return total
	}
}

// Sum returns an aggregator that simply adds the components.
func Sum() Aggregator {
	return func(components []float64) float64 {
		total := 0.0
		for _, c := range components {
			total += c
		}
		return total
	}
}

// Spec is a full SVR score specification for one text column.
type Spec struct {
	// Components are the scoring components S1..Sm.
	Components []Component
	// Agg combines the component values; nil means Sum().
	Agg Aggregator
	// IncludeTermScore requests that IR-style term scores (TF-IDF) be
	// combined with the SVR score at query time; it does not affect the
	// materialized view (§3.2 notes the TF-IDF term is excluded from the
	// view and handled by the query algorithm).
	IncludeTermScore bool
}

// Validate checks that the spec is usable.
func (s *Spec) Validate() error {
	if len(s.Components) == 0 {
		return errors.New("view: spec needs at least one scoring component")
	}
	for i, c := range s.Components {
		if c.Eval == nil {
			return fmt.Errorf("view: component %d (%q) has no Eval function", i, c.Name)
		}
	}
	return nil
}

// --- component constructors ---------------------------------------------------

// AvgColumn returns a component computing AVG(valueColumn) over the rows of
// table whose fkColumn equals the document key — the shape of the paper's S1
// (average review rating).  Documents with no matching rows score 0.
func AvgColumn(table, valueColumn, fkColumn string) Component {
	return Component{
		Name:      fmt.Sprintf("avg(%s.%s)", table, valueColumn),
		DependsOn: []Dependency{{Table: table, FKColumn: fkColumn}},
		Eval: func(db *relation.DB, pk int64) (float64, error) {
			sum, n, err := foldColumn(db, table, valueColumn, fkColumn, pk)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return 0, nil
			}
			return sum / float64(n), nil
		},
	}
}

// SumColumn returns a component computing SUM(valueColumn) over matching rows.
func SumColumn(table, valueColumn, fkColumn string) Component {
	return Component{
		Name:      fmt.Sprintf("sum(%s.%s)", table, valueColumn),
		DependsOn: []Dependency{{Table: table, FKColumn: fkColumn}},
		Eval: func(db *relation.DB, pk int64) (float64, error) {
			sum, _, err := foldColumn(db, table, valueColumn, fkColumn, pk)
			return sum, err
		},
	}
}

// CountRows returns a component counting the matching rows of table.
func CountRows(table, fkColumn string) Component {
	return Component{
		Name:      fmt.Sprintf("count(%s)", table),
		DependsOn: []Dependency{{Table: table, FKColumn: fkColumn}},
		Eval: func(db *relation.DB, pk int64) (float64, error) {
			tbl, err := db.Table(table)
			if err != nil {
				return 0, err
			}
			if err := tbl.EnsureIndex(fkColumn); err != nil {
				return 0, err
			}
			count := 0.0
			err = tbl.LookupByColumn(fkColumn, relation.Int(pk), func(relation.Row) bool {
				count++
				return true
			})
			return count, err
		},
	}
}

// LookupColumn returns a component reading valueColumn from the single row of
// table whose fkColumn equals the document key — the shape of the paper's S2
// and S3 (nVisit and nDownload in the Statistics table).  Missing rows score
// 0; when several rows match, the first is used.
func LookupColumn(table, valueColumn, fkColumn string) Component {
	return Component{
		Name:      fmt.Sprintf("%s.%s", table, valueColumn),
		DependsOn: []Dependency{{Table: table, FKColumn: fkColumn}},
		Eval: func(db *relation.DB, pk int64) (float64, error) {
			tbl, err := db.Table(table)
			if err != nil {
				return 0, err
			}
			if err := tbl.EnsureIndex(fkColumn); err != nil {
				return 0, err
			}
			colIdx, err := tbl.Schema().ColumnIndex(valueColumn)
			if err != nil {
				return 0, err
			}
			out := 0.0
			found := false
			err = tbl.LookupByColumn(fkColumn, relation.Int(pk), func(r relation.Row) bool {
				out = r[colIdx].AsFloat()
				found = true
				return false
			})
			_ = found
			return out, err
		},
	}
}

// OwnColumn returns a component reading a numeric column of the indexed
// relation itself (for example ranking an auctions table by its own
// currentBid column).
func OwnColumn(table, valueColumn string) Component {
	return Component{
		Name:      fmt.Sprintf("%s.%s", table, valueColumn),
		DependsOn: []Dependency{{Table: table}},
		Eval: func(db *relation.DB, pk int64) (float64, error) {
			tbl, err := db.Table(table)
			if err != nil {
				return 0, err
			}
			colIdx, err := tbl.Schema().ColumnIndex(valueColumn)
			if err != nil {
				return 0, err
			}
			row, err := tbl.Get(pk)
			if errors.Is(err, relation.ErrNotFound) {
				return 0, nil
			}
			if err != nil {
				return 0, err
			}
			return row[colIdx].AsFloat(), nil
		},
	}
}

// Constant returns a component with a fixed value (useful for offsets in
// tests and ablations).
func Constant(v float64) Component {
	return Component{
		Name: fmt.Sprintf("const(%g)", v),
		Eval: func(*relation.DB, int64) (float64, error) { return v, nil },
	}
}

func foldColumn(db *relation.DB, table, valueColumn, fkColumn string, pk int64) (sum float64, n int, err error) {
	tbl, err := db.Table(table)
	if err != nil {
		return 0, 0, err
	}
	if err := tbl.EnsureIndex(fkColumn); err != nil {
		return 0, 0, err
	}
	colIdx, err := tbl.Schema().ColumnIndex(valueColumn)
	if err != nil {
		return 0, 0, err
	}
	err = tbl.LookupByColumn(fkColumn, relation.Int(pk), func(r relation.Row) bool {
		sum += r[colIdx].AsFloat()
		n++
		return true
	})
	return sum, n, err
}

// --- the Score materialized view ----------------------------------------------

// ScoreChange is delivered to listeners when a document's SVR score has been
// re-evaluated: after a change to the document's row or to a dependency row
// that maps to it.  The view keeps no copy of the scores to compare against,
// so New may equal the score the listener already holds; dropping that case
// is the listener's job (the index's Score table does it).
type ScoreChange struct {
	Doc int64
	New float64
	// Inserted is true when the document's row was just inserted into the
	// indexed relation, Deleted when it was just deleted from it.
	Inserted bool
	Deleted  bool
	// Err is set when a score component failed: the change carries no score
	// and the listener is left holding a stale one.
	Err error
}

// ScoreListener observes score changes; the inverted-list indexes register
// one so that score updates reach Algorithm 1.
type ScoreListener func(ScoreChange)

// ScoreView maintains the paper's `create materialized view Score` (§3.2)
// incrementally: it watches the indexed relation and every table a score
// component depends on, re-evaluates Agg(S1..Sm) for each affected document
// and hands the result to its listeners.  The materialized rows themselves
// live with the listener — the text index's Score table, the table
// Algorithms 1-3 probe by document ID — so there is exactly one copy of them.
type ScoreView struct {
	db        *relation.DB
	baseTable string
	spec      Spec

	// refreshMu serializes refreshes and removals end to end — component
	// evaluation and listener notification — so concurrent base mutations of
	// the same document cannot interleave (last-computed-wins would let a
	// stale score overwrite a fresh one, and notifications would reach the
	// indexes out of order).
	refreshMu sync.Mutex

	mu        sync.RWMutex
	listeners []ScoreListener
	attached  bool
	// hooks remembers every dependency-table listener Attach registered so
	// Detach can unhook them when the owning index is dropped.
	hooks []tableHook
}

// tableHook pairs a dependency table with the listener handle Attach
// registered on it.
type tableHook struct {
	table  *relation.Table
	handle relation.ListenerHandle
}

// NewScoreView creates the view for the given indexed relation and spec.
// Call Attach to enable incremental maintenance.  The spec holds Go functions
// and cannot be serialized, so a reopened engine creates the view afresh from
// the spec its registry resolves (see core.OpenOptions).
func NewScoreView(db *relation.DB, baseTable string, spec Spec) (*ScoreView, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Agg == nil {
		spec.Agg = Sum()
	}
	if _, err := db.Table(baseTable); err != nil {
		return nil, err
	}
	return &ScoreView{db: db, baseTable: baseTable, spec: spec}, nil
}

// Spec returns the view's score specification.
func (v *ScoreView) Spec() Spec { return v.spec }

// OnScoreChange registers a listener invoked after each re-evaluation.
func (v *ScoreView) OnScoreChange(l ScoreListener) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.listeners = append(v.listeners, l)
}

func (v *ScoreView) notify(c ScoreChange) {
	v.mu.RLock()
	listeners := append([]ScoreListener(nil), v.listeners...)
	v.mu.RUnlock()
	for _, l := range listeners {
		l(c)
	}
}

// Compute evaluates the aggregated score of one document from the tables as
// they are now.  It must not be called from inside a scan of a table a score
// component reads.
func (v *ScoreView) Compute(pk int64) (float64, error) {
	components := make([]float64, len(v.spec.Components))
	for i, c := range v.spec.Components {
		s, err := c.Eval(v.db, pk)
		if err != nil {
			return 0, fmt.Errorf("view: component %q for doc %d: %w", c.Name, pk, err)
		}
		components[i] = s
	}
	return v.spec.Agg(components), nil
}

// refresh re-evaluates the score of one document and notifies the listeners.
// This is the unit of incremental maintenance.
func (v *ScoreView) refresh(pk int64, inserted bool) {
	v.refreshMu.Lock()
	defer v.refreshMu.Unlock()
	// Check existence under refreshMu: a change to a dependency row of a
	// document that does not exist, or a racing base-table Delete whose
	// remove already ran (or will run after this refresh, serialized behind
	// refreshMu), must not hand the listeners a score for a dead document.
	base, err := v.db.Table(v.baseTable)
	if err == nil {
		_, err = base.Get(pk)
	}
	if errors.Is(err, relation.ErrNotFound) {
		return
	}
	var score float64
	if err == nil {
		score, err = v.Compute(pk)
	}
	v.notify(ScoreChange{Doc: pk, New: score, Inserted: inserted, Err: err})
}

// remove tells the listeners a document left the indexed relation.
func (v *ScoreView) remove(pk int64) {
	v.refreshMu.Lock()
	defer v.refreshMu.Unlock()
	v.notify(ScoreChange{Doc: pk, Deleted: true})
}

// Attach registers change listeners on every dependency table so that base
// updates are folded into the view incrementally.  It is idempotent.
func (v *ScoreView) Attach() error {
	v.mu.Lock()
	if v.attached {
		v.mu.Unlock()
		return nil
	}
	v.attached = true
	v.mu.Unlock()

	type hook struct {
		table    string
		fkColumn string
	}
	hooks := map[hook]bool{}
	for _, c := range v.spec.Components {
		for _, dep := range c.DependsOn {
			table := dep.Table
			if table == "" {
				table = v.baseTable
			}
			hooks[hook{table: table, fkColumn: dep.FKColumn}] = true
		}
	}
	// The indexed relation itself always participates: inserting or deleting
	// a document must add or remove its view row.
	hooks[hook{table: v.baseTable}] = true

	for h := range hooks {
		tbl, err := v.db.Table(h.table)
		if err != nil {
			return err
		}
		fkIdx := -1
		if h.fkColumn != "" {
			fkIdx, err = tbl.Schema().ColumnIndex(h.fkColumn)
			if err != nil {
				return err
			}
		}
		isBase := h.table == v.baseTable && h.fkColumn == ""
		fk := fkIdx
		handle := tbl.OnChange(func(c relation.Change) {
			v.handleChange(c, isBase, fk)
		})
		v.mu.Lock()
		v.hooks = append(v.hooks, tableHook{table: tbl, handle: handle})
		v.mu.Unlock()
	}
	return nil
}

// Detach unhooks every dependency-table listener Attach registered, so base
// mutations stop refreshing the view.  A mutation already mid-notification
// may still deliver one final change after Detach returns; the caller (index
// drop) fences the index before releasing its pages.
func (v *ScoreView) Detach() {
	v.mu.Lock()
	hooks := v.hooks
	v.hooks = nil
	v.attached = false
	v.mu.Unlock()
	for _, h := range hooks {
		h.table.RemoveListener(h.handle)
	}
}

// handleChange folds one base-table change into the view: a change to the
// indexed relation affects its own document, a change to a dependency table
// the documents its old and new rows point at.
func (v *ScoreView) handleChange(c relation.Change, isBase bool, fkIdx int) {
	if isBase {
		if c.Kind == relation.ChangeDelete {
			v.remove(c.PK)
		} else {
			v.refresh(c.PK, c.Kind == relation.ChangeInsert)
		}
		return
	}
	affected := map[int64]bool{}
	for _, row := range []relation.Row{c.Old, c.New} {
		if fkIdx >= 0 && fkIdx < len(row) {
			affected[row[fkIdx].AsInt()] = true
		}
	}
	for pk := range affected {
		v.refresh(pk, false)
	}
}
