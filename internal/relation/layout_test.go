package relation

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// TestFixedColumnUpdateWritesNoStringPage: a batch that updates only a
// fixed-width column of every row logs the row tree's leaves (and at most
// their path), never a string-tree page.  A layout storing each row whole
// would log about one page per two rows, since two ~815-byte rows fill a
// 4 KiB leaf.
func TestFixedColumnUpdateWritesNoStringPage(t *testing.T) {
	const rows = 300
	file, err := pagefile.Open(filepath.Join(t.TempDir(), "t.svrdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	pool := buffer.MustNew(file, 1024)
	tbl, err := NewDB(pool).CreateTable(Schema{Name: "Docs", Columns: []Column{
		{Name: "id", Kind: KindInt64},
		{Name: "body", Kind: KindString},
		{Name: "score", Kind: KindFloat64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	commit := func() {
		t.Helper()
		if err := pool.FlushOrdered(); err != nil {
			t.Fatal(err)
		}
		if err := file.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	for pk := int64(1); pk <= rows; pk++ {
		body := strings.Repeat(fmt.Sprintf("word%d ", pk%10), 800/6)
		if err := tbl.Insert(Row{Int(pk), Str(body), Float(float64(pk))}); err != nil {
			t.Fatal(err)
		}
	}
	commit()

	before := file.Stats()
	for pk := int64(1); pk <= rows; pk++ {
		if err := tbl.Update(pk, map[string]Value{"score": Float(float64(pk) + 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	logged := file.Stats().LoggedPages - before.LoggedPages

	leaves, _, err := tbl.rows.LeafStats()
	if err != nil {
		t.Fatal(err)
	}
	height, err := tbl.rows.Height()
	if err != nil {
		t.Fatal(err)
	}
	if budget := uint64(leaves + height - 1); logged == 0 || logged > budget {
		t.Errorf("a score update of %d rows logged %d pages, want 1..%d (%d row-tree leaves plus their path)", rows, logged, budget, leaves)
	}
	// And those leaves are narrow: a logged page holds dozens of rows'
	// fixed-width columns, not two rows' text.
	if logged > rows/20 {
		t.Errorf("a score update of %d rows logged %d pages, want at most %d", rows, logged, rows/20)
	}
	row, err := tbl.Get(rows)
	if err != nil {
		t.Fatal(err)
	}
	if row[2].F != rows+0.5 || len(row[1].S) < 700 {
		t.Errorf("row %d after the update = (%d-byte body, score %g)", rows, len(row[1].S), row[2].F)
	}
}

// fuzzSchema mixes the column kinds so both trees carry several columns.
func fuzzSchema(name string) Schema {
	return Schema{Name: name, Columns: []Column{
		{Name: "id", Kind: KindInt64},
		{Name: "a", Kind: KindString},
		{Name: "f", Kind: KindFloat64},
		{Name: "b", Kind: KindString},
		{Name: "n", Kind: KindInt64},
	}}
}

// treeKeys lists a tree's keys in order.
func treeKeys(t *testing.T, tree *btree.Tree) [][]byte {
	t.Helper()
	var keys [][]byte
	if err := tree.View().Ascend(func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// FuzzTableOps runs arbitrary insert / update (fixed columns, string
// columns, both) / delete / GetMany / Scan / LookupByColumn sequences, with
// State → RestoreTable reopens, against a map model.  After every step the
// row tree and the string tree hold the same key set as the model.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 3, 6, 0, 5, 1, 3, 7, 4, 8, 6})
	f.Add([]byte{0, 9, 9, 0, 9, 9, 2, 9, 200, 4, 9, 6, 8, 5, 9, 9})
	long := make([]byte, 300)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Short traces keep an execution (and so minimization) cheap; small
		// pages let them split both trees.
		if len(data) > 300 {
			data = data[:300]
		}
		pool := buffer.MustNew(pagefile.MustNewMem(512), 256)
		db := NewDB(pool)
		tbl, err := db.CreateTable(fuzzSchema("T"))
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"a", "n"} {
			if err := tbl.CreateIndex(col); err != nil {
				t.Fatal(err)
			}
		}
		model := map[int64]Row{}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		// Keys span negative and positive pks, whose encodings sort apart.
		pkOf := func(b byte) int64 { return int64(b%48) - 8 }
		str := func(b byte) string { return strings.Repeat(string(rune('a'+b%26)), int(b%4)*15) }
		for step := 0; pos < len(data); step++ {
			op, pk := next()%9, pkOf(next())
			switch op {
			case 0: // insert
				row := Row{Int(pk), Str(str(next())), Float(float64(next()) / 4), Str(str(next())), Int(int64(next()%5) - 2)}
				err := tbl.Insert(row)
				if _, exists := model[pk]; exists != errors.Is(err, ErrDuplicateKey) || !exists && err != nil {
					t.Fatalf("step %d: insert %d (present %v): %v", step, pk, exists, err)
				}
				if err == nil {
					model[pk] = row
				}
			case 1, 2, 3: // update fixed columns, string columns, or both
				upd := map[string]Value{}
				if op != 2 {
					upd["f"], upd["n"] = Float(float64(next())), Int(int64(next()%5)-2)
				}
				if op != 1 {
					upd["a"], upd["b"] = Str(str(next())), Str(str(next()))
				}
				err := tbl.Update(pk, upd)
				old, exists := model[pk]
				if exists != (err == nil) {
					t.Fatalf("step %d: update %d (present %v): %v", step, pk, exists, err)
				}
				if exists {
					row := slices.Clone(old)
					for name, v := range upd {
						i, _ := tbl.schema.ColumnIndex(name)
						row[i] = v
					}
					model[pk] = row
				}
			case 4: // delete
				err := tbl.Delete(pk)
				if _, exists := model[pk]; exists != (err == nil) {
					t.Fatalf("step %d: delete %d (present %v): %v", step, pk, exists, err)
				}
				delete(model, pk)
			case 5: // GetMany
				pks := []int64{pk, pkOf(next()), pkOf(next()), pk}
				got, err := tbl.GetMany(pks)
				if err != nil {
					t.Fatalf("step %d: GetMany: %v", step, err)
				}
				for i, p := range pks {
					if want := model[p]; !slices.Equal(got[i], want) {
						t.Fatalf("step %d: GetMany pk %d = %v, want %v", step, p, got[i], want)
					}
				}
			case 6: // Scan, stopping early at a drawn row count
				limit := int(next())
				var got []Row
				if err := tbl.Scan(func(r Row) bool {
					got = append(got, r)
					return len(got) < limit
				}); err != nil {
					t.Fatalf("step %d: Scan: %v", step, err)
				}
				want := sortedModel(model)
				if len(want) > limit {
					want = want[:max(limit, 1)]
				}
				if !slices.EqualFunc(got, want, func(a, b Row) bool { return slices.Equal(a, b) }) {
					t.Fatalf("step %d: Scan = %v, want %v", step, got, want)
				}
			case 7: // LookupByColumn on the int or the string index
				col, v := "n", Int(int64(next()%5)-2)
				if pk%2 == 0 {
					col, v = "a", Str(str(next()))
				}
				var got []Row
				if err := tbl.LookupByColumn(col, v, func(r Row) bool {
					got = append(got, r)
					return true
				}); err != nil {
					t.Fatalf("step %d: LookupByColumn: %v", step, err)
				}
				i, _ := tbl.schema.ColumnIndex(col)
				var want []Row
				for _, r := range sortedModel(model) {
					if r[i] == v {
						want = append(want, r)
					}
				}
				if !slices.EqualFunc(got, want, func(a, b Row) bool { return slices.Equal(a, b) }) {
					t.Fatalf("step %d: LookupByColumn(%s = %v) = %v, want %v", step, col, v, got, want)
				}
			case 8: // reopen from the table's state
				db = NewDB(pool)
				if tbl, err = db.RestoreTable(tbl.State()); err != nil {
					t.Fatalf("step %d: RestoreTable: %v", step, err)
				}
			}
			checkTrees(t, step, tbl, model)
		}
	})
}

// sortedModel lists the model's rows in the table's key order.
func sortedModel(model map[int64]Row) []Row {
	rows := make([]Row, 0, len(model))
	for _, r := range model {
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b Row) int { return bytes.Compare(pkKey(a[0].I), pkKey(b[0].I)) })
	return rows
}

// checkTrees asserts that the row tree and the string tree each hold exactly
// the model's keys, and that the counters agree with it.
func checkTrees(t *testing.T, step int, tbl *Table, model map[int64]Row) {
	t.Helper()
	var want [][]byte
	var bytesWant int64
	for _, r := range sortedModel(model) {
		want = append(want, pkKey(r[0].I))
		bytesWant += int64(EncodedRowSize(r))
	}
	eq := func(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }
	if rows, strs := treeKeys(t, tbl.rows), treeKeys(t, tbl.strs); !eq(rows, want) || !eq(strs, want) {
		t.Fatalf("step %d: row tree keys %x, string tree keys %x, model %x", step, rows, strs, want)
	}
	if tbl.Len() != len(model) || tbl.Bytes() != bytesWant {
		t.Fatalf("step %d: Len %d Bytes %d, model %d rows of %d bytes", step, tbl.Len(), tbl.Bytes(), len(model), bytesWant)
	}
}
