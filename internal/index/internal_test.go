package index

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"svrdb/internal/codec"
	"svrdb/internal/postings"
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// Tests for the internal building blocks shared by the index methods: the
// Score table, in both row widths, and the B+-tree-backed keyed posting
// lists (short lists and the Score method's clustered lists).

func newTestPool(tb testing.TB) *buffer.Pool {
	tb.Helper()
	return buffer.MustNew(pagefile.MustNewMem(1024), 2048)
}

func TestScoreTableBasics(t *testing.T) {
	st, err := newDocTable(newTestPool(t), rowBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(5); ok {
		t.Error("empty table reported a score")
	}
	st.Put(5, docRow{val: 87.13})
	r, ok, err := st.Get(5)
	if err != nil || !ok || r != (docRow{val: 87.13}) {
		t.Errorf("Get = %+v %v %v", r, ok, err)
	}
	st.Put(5, docRow{val: 124.2})
	if r, _, _ = st.Get(5); r.val != 124.2 {
		t.Errorf("score after update = %v", r.val)
	}
	st.Put(5, docRow{val: 124.2, deleted: true})
	if r, ok, _ = st.Get(5); !ok || !r.deleted || r.val != 124.2 {
		t.Errorf("after marking deleted: %+v %v", r, ok)
	}
	if _, live, _ := rowScore(st.Get(5)); live {
		t.Error("a deleted document reads as live")
	}
	// Re-setting the score clears the deleted flag (ID reuse).
	st.Put(5, docRow{val: 10})
	if err := st.flushBatch(); err != nil {
		t.Fatal(err)
	}
	if r, _, _ = st.snapshotView().Get(5); r != (docRow{val: 10}) {
		t.Errorf("flushed row = %+v, want the last write", r)
	}
	// The short-list bit round-trips beside the deleted flag.
	for _, want := range []docRow{{val: 11, short: true}, {val: 12, deleted: true, short: true}, {val: 13}} {
		st.Put(5, want)
		if err := st.flushBatch(); err != nil {
			t.Fatal(err)
		}
		if r, _, _ = st.snapshotView().Get(5); r != want {
			t.Errorf("flushed row = %+v, want %+v", r, want)
		}
	}
	if st.Len() != 1 || st.dirty() {
		t.Errorf("Len = %d, dirty = %v after the flush, want 1 row and an empty overlay", st.Len(), st.dirty())
	}
}

func TestScoreTableForEach(t *testing.T) {
	st, err := newDocTable(newTestPool(t), rowBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		st.Put(DocID(i), docRow{val: float64(i) * 10, deleted: i == 7})
	}
	if err := st.flushBatch(); err != nil {
		t.Fatal(err)
	}
	var docs []DocID
	deletedCount := 0
	if err := st.ForEach(func(doc DocID, r docRow) bool {
		docs = append(docs, doc)
		if r.deleted {
			deletedCount++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 20 || deletedCount != 1 {
		t.Errorf("ForEach visited %d docs with %d deleted", len(docs), deletedCount)
	}
	for i := 1; i < len(docs); i++ {
		if docs[i-1] >= docs[i] {
			t.Fatal("ForEach not in document order")
		}
	}
	// Early stop.
	count := 0
	st.ForEach(func(DocID, docRow) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early-stopped ForEach visited %d", count)
	}
}

// TestListTable drives the table whose rows carry the list key, the
// threshold family's Score table: rows of a score, a list key and both
// flags, through the overlay, the frozen view and the probe.
func TestListTable(t *testing.T) {
	lt, err := newDocTable(newTestPool(t), keyedRowBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := lt.Get(3); ok {
		t.Error("empty table returned an entry")
	}
	first := docRow{val: 87.13, key: 2}
	lt.Put(3, first)
	if err := lt.flushBatch(); err != nil {
		t.Fatal(err)
	}
	e, ok, err := lt.Get(3)
	if err != nil || !ok || e != first {
		t.Errorf("Get = %+v %v %v", e, ok, err)
	}
	moved := docRow{val: 5000, key: 4, short: true}
	lt.Put(3, moved)
	if e, _, _ = lt.Get(3); e != moved {
		t.Errorf("staged entry = %+v", e)
	}
	if e, _, _ = lt.snapshotView().Get(3); e != first {
		t.Errorf("view saw the staged entry before the flush: %+v", e)
	}
	if err := lt.flushBatch(); err != nil {
		t.Fatal(err)
	}
	if e, _, _ = lt.snapshotView().Get(3); e != moved {
		t.Errorf("entry after flush = %+v", e)
	}
	var p docProbe
	p.bind(lt.snapshotView())
	if e, ok, err = p.Get(3); err != nil || !ok || e != moved {
		t.Errorf("probe Get = %+v %v %v", e, ok, err)
	}
	dead := docRow{val: 5000, key: 4, deleted: true}
	lt.Put(3, dead)
	if err := lt.flushBatch(); err != nil {
		t.Fatal(err)
	}
	if e, _, _ = lt.snapshotView().Get(3); e != dead {
		t.Errorf("deleted marker after flush = %+v", e)
	}
	if lt.Len() != 1 {
		t.Errorf("Len = %d", lt.Len())
	}
}

// TestDocRowRejectsHostileBytes: every writer stores exactly the table's row
// width — 9 bytes, or 17 where the row carries the list key — with no flag
// bit but deleted and short-list, so any other value is corrupt — through
// the decoder and through every table reader — instead of a row whose
// rotted deleted marker reads as live or whose stray bit invents a
// short-list copy.
func TestDocRowRejectsHostileBytes(t *testing.T) {
	row := func(flag byte) []byte { return append(codec.PutFloat64(nil, 42.5), flag) }
	listed := func(flag byte) []byte {
		return append(codec.PutFloat64(codec.PutFloat64(nil, 42.5), 3), flag)
	}
	for _, tc := range []struct {
		name  string
		width rowWidth
		val   []byte
	}{
		{"score flag 4", rowBytes, row(4)},
		{"score flag 5", rowBytes, row(5)},
		{"score flag 0xFF", rowBytes, row(0xFF)},
		{"score empty", rowBytes, nil},
		{"score missing flag", rowBytes, row(0)[:8]},
		{"score trailing byte", rowBytes, append(row(0), 0)},
		{"score list row", rowBytes, listed(0)},
		{"list flag 4", keyedRowBytes, listed(4)},
		{"list flag 7", keyedRowBytes, listed(7)},
		{"list flag 0x80", keyedRowBytes, listed(0x80)},
		{"list trailing byte", keyedRowBytes, append(listed(0), 0)},
		{"list missing flag", keyedRowBytes, listed(0)[:16]},
		{"list missing key", keyedRowBytes, row(0)},
		{"list empty", keyedRowBytes, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r, err := tc.width.decode(tc.val); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("decode(%x) = (%+v, %v), want ErrCorrupt", tc.val, r, err)
			}
			dt, err := newDocTable(newTestPool(t), tc.width)
			if err != nil {
				t.Fatal(err)
			}
			key := docKey(7)
			if _, err := dt.tree.UpsertBatch([]btree.Item{{Key: key[:], Value: tc.val}}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := dt.Get(7); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("table Get over %x: %v, want ErrCorrupt", tc.val, err)
			}
			v := dt.snapshotView()
			if _, _, err := v.Get(7); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("view Get over %x: %v, want ErrCorrupt", tc.val, err)
			}
			var p docProbe
			p.bind(v)
			if _, _, err := p.Get(7); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("probe Get over %x: %v, want ErrCorrupt", tc.val, err)
			}
			if err := dt.ForEach(func(DocID, docRow) bool { return true }); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("ForEach over %x: %v, want ErrCorrupt", tc.val, err)
			}
		})
	}
	for _, flags := range []byte{0, flagDeleted, flagShort, flagDeleted | flagShort} {
		want := docRow{val: 42.5, deleted: flags&flagDeleted != 0, short: flags&flagShort != 0}
		if r, err := rowBytes.decode(row(flags)); err != nil || r != want {
			t.Errorf("Score row with flag byte %d = (%+v, %v), want %+v", flags, r, err, want)
		}
		want.key = 3
		if r, err := keyedRowBytes.decode(listed(flags)); err != nil || r != want {
			t.Errorf("list-keyed row with flag byte %d = (%+v, %v), want %+v", flags, r, err, want)
		}
	}
}

// flushedView flushes a keyed list's staged writes and captures the frozen
// view every reader of the list goes through.
func flushedView(t *testing.T, kl *keyedList) keyedView {
	t.Helper()
	if err := kl.flushBatch(); err != nil {
		t.Fatal(err)
	}
	return kl.snapshotView()
}

func TestKeyedListOrderingAndCollect(t *testing.T) {
	kl, err := newKeyedList(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	// Insert postings for two terms with interleaved sort keys.
	type p struct {
		term string
		key  float64
		doc  DocID
	}
	var ps []p
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		ps = append(ps, p{
			term: []string{"news", "gate"}[rng.Intn(2)],
			key:  float64(rng.Intn(50)),
			doc:  DocID(rng.Intn(1000)),
		})
	}
	inserted := map[string]bool{}
	for _, x := range ps {
		kl.Put(x.term, x.key, x.doc, postings.OpAdd, float32(x.key))
		inserted[fmt.Sprintf("%s/%v/%d", x.term, x.key, x.doc)] = true
	}
	v := flushedView(t, kl)
	if v.Len() != len(inserted) {
		t.Errorf("Len = %d, want %d distinct postings", v.Len(), len(inserted))
	}
	entries, err := postings.CollectBatched(v.Cursor("news"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.SortKey < b.SortKey || (a.SortKey == b.SortKey && a.Doc >= b.Doc) {
			t.Fatalf("collect order violated at %d: %+v then %+v", i, a, b)
		}
	}
	for _, e := range entries {
		if e.TermScore != float32(e.SortKey) {
			t.Errorf("term score %v does not round-trip (key %v)", e.TermScore, e.SortKey)
		}
	}
	// Other term must not leak into this term's entries.
	gateEntries, _ := postings.CollectBatched(v.Cursor("gate"))
	if len(entries)+len(gateEntries) != v.Len() {
		t.Errorf("per-term collects (%d + %d) do not cover all %d postings", len(entries), len(gateEntries), v.Len())
	}
}

// TestKeyedListValueRejectsHostileBytes: every writer stores exactly an op
// byte (ADD or REM) and a float32 weight, so a value of any other length or
// with any other op is corrupt — through the decoder and through the list
// readers — instead of a posting with a made-up op or weight.
func TestKeyedListValueRejectsHostileBytes(t *testing.T) {
	good := encodeKeyedListValue(postings.OpRem, 0.75)
	for _, tc := range []struct {
		name string
		val  []byte
	}{
		{"empty", nil},
		{"op only", []byte{byte(postings.OpAdd)}},
		{"four bytes", good[:4]},
		{"six bytes", append(append([]byte(nil), good...), 0)},
		{"unknown op", append([]byte{2}, good[1:]...)},
		{"op 0xFF", append([]byte{0xFF}, good[1:]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if op, w, err := decodeKeyedListValue(tc.val); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("decode(%x) = (%d, %g, %v), want ErrCorrupt", tc.val, op, w, err)
			}
			kl, err := newKeyedList(newTestPool(t))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := kl.tree.UpsertBatch([]btree.Item{{Key: keyedListKey("news", 3, 42), Value: tc.val}}); err != nil {
				t.Fatal(err)
			}
			v := kl.snapshotView()
			if _, err := postings.CollectBatched(v.Cursor("news")); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("Cursor over %x: %v, want ErrCorrupt", tc.val, err)
			}
		})
	}
	for _, op := range []postings.Op{postings.OpAdd, postings.OpRem} {
		if gotOp, w, err := decodeKeyedListValue(encodeKeyedListValue(op, 0.75)); err != nil || gotOp != op || w != 0.75 {
			t.Errorf("round trip of op %d = (%d, %g, %v)", op, gotOp, w, err)
		}
	}
}

func TestKeyedListDeleteAndDeleteDoc(t *testing.T) {
	kl, err := newKeyedList(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		kl.Put("news", float64(i), 42, postings.OpAdd, 0)
		kl.Put("news", float64(i), 43, postings.OpAdd, 0)
	}
	kl.Put("sport", 7, 42, postings.OpRem, 0)
	kl.Delete("news", 3, 42)
	if n := flushedView(t, kl).Len(); n != 20 {
		t.Errorf("Len after single delete = %d, want 20", n)
	}
	// Deleting a missing posting is a no-op.
	kl.Delete("news", 99, 42)
	if n := flushedView(t, kl).Len(); n != 20 {
		t.Errorf("Len after no-op delete = %d", n)
	}
	// DeleteDoc reaches the flushed postings under every term and the
	// staged ones.
	kl.Put("news", 50, 42, postings.OpAdd, 0)
	kl.Put("weather", 2, 42, postings.OpAdd, 0)
	if err := kl.DeleteDoc(42); err != nil {
		t.Fatal(err)
	}
	v := flushedView(t, kl)
	if v.Len() != 10 {
		t.Errorf("after DeleteDoc, %d postings remain, want 10 (doc 43 only)", v.Len())
	}
	for _, term := range []string{"news", "sport", "weather"} {
		entries, err := postings.CollectBatched(v.Cursor(term))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Doc != 43 {
				t.Errorf("%s posting for doc %d survived DeleteDoc", term, e.Doc)
			}
		}
	}
}

// TestKeyedListDeleteDocRefusesCorruptKey: a key the purge cannot decode
// is corruption, reported as such, not a posting of some other document to
// step over; and the failed purge stages nothing.
func TestKeyedListDeleteDocRefusesCorruptKey(t *testing.T) {
	for name, key := range map[string][]byte{
		"no terminator":    []byte("news"),
		"truncated suffix": append(keyedListPrefix("news"), 0x01, 0x02, 0x03),
	} {
		t.Run(name, func(t *testing.T) {
			kl, err := newKeyedList(newTestPool(t))
			if err != nil {
				t.Fatal(err)
			}
			kl.Put("news", 5, 42, postings.OpAdd, 0)
			if err := kl.flushBatch(); err != nil {
				t.Fatal(err)
			}
			if _, err := kl.tree.UpsertBatch([]btree.Item{{Key: key, Value: encodeKeyedListValue(postings.OpAdd, 0)}}); err != nil {
				t.Fatal(err)
			}
			if err := kl.DeleteDoc(42); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("DeleteDoc over a corrupt key = %v, want ErrCorrupt", err)
			}
			if kl.dirty() {
				t.Error("a failed purge staged writes")
			}
		})
	}
}

func TestTreeCursorStreamsInBatches(t *testing.T) {
	kl, err := newKeyedList(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	// More postings than one downstream batch.
	const n = postings.BatchSize*3 + 17
	for i := 0; i < n; i++ {
		kl.Put("term", float64(n-i), DocID(i), postings.OpAdd, 0)
	}
	// A different term that must not be visited.
	kl.Put("other", 1, 1, postings.OpAdd, 0)
	v := flushedView(t, kl)
	got, err := postings.CollectBatched(v.Cursor("term"))
	if err != nil {
		t.Fatal(err)
	}
	prevKey := float64(1 << 30)
	for _, e := range got {
		if e.SortKey > prevKey {
			t.Fatalf("cursor order violated: %v after %v", e.SortKey, prevKey)
		}
		prevKey = e.SortKey
	}
	if len(got) != n {
		t.Errorf("cursor visited %d postings, want %d", len(got), n)
	}
	// Cursor over an absent term terminates immediately.
	if got, err := postings.CollectBatched(v.Cursor("absent")); err != nil || len(got) != 0 {
		t.Errorf("cursor over absent term yielded %d postings, err %v", len(got), err)
	}
}

func TestKeyedListSizeBytes(t *testing.T) {
	kl, err := newKeyedList(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	if sz, err := flushedView(t, kl).SizeBytes(); err != nil || sz != 0 {
		t.Errorf("empty SizeBytes = %d, %v", sz, err)
	}
	for i := 0; i < 100; i++ {
		kl.Put("t", float64(i), DocID(i), postings.OpAdd, 0.5)
	}
	sz, err := flushedView(t, kl).SizeBytes()
	if err != nil || sz == 0 {
		t.Errorf("SizeBytes = %d, %v", sz, err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.ThresholdRatio != 11.24 || c.ChunkRatio != 6.12 || c.MinChunkSize != 100 || c.FancyListSize != 32 {
		t.Errorf("Defaults = %+v", c)
	}
	custom := Config{ThresholdRatio: 3, ChunkRatio: 2, MinChunkSize: 7, FancyListSize: 9}.Defaults()
	if custom.ThresholdRatio != 3 || custom.ChunkRatio != 2 || custom.MinChunkSize != 7 || custom.FancyListSize != 9 {
		t.Errorf("Defaults overwrote explicit values: %+v", custom)
	}
	if _, err := New("chunk", Config{}); err == nil {
		t.Error("New without a pool succeeded")
	}
}

func TestDiffTerms(t *testing.T) {
	added, removed := diffTerms(
		[]string{"golden", "gate", "bridge", "gate"},
		[]string{"golden", "gate", "ferry"},
	)
	if len(added) != 1 || added[0] != "ferry" {
		t.Errorf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "bridge" {
		t.Errorf("removed = %v", removed)
	}
	added, removed = diffTerms(nil, nil)
	if len(added) != 0 || len(removed) != 0 {
		t.Errorf("diff of empty streams = %v, %v", added, removed)
	}
}

func TestDocTermWeights(t *testing.T) {
	weights := docTermWeights([]string{"a", "b", "a", "a", "c"})
	byTerm := map[string]float32{}
	for _, w := range weights {
		byTerm[w.term] = w.w
	}
	if len(byTerm) != 3 {
		t.Fatalf("expected 3 distinct terms, got %d", len(byTerm))
	}
	if byTerm["a"] != 0.6 || byTerm["b"] != 0.2 || byTerm["c"] != 0.2 {
		t.Errorf("weights = %v", byTerm)
	}
}

func TestTreeCursorExactBatchMultiple(t *testing.T) {
	// A term whose posting count is an exact multiple of the caller's batch
	// size must end after its last full batch, not re-yield it (a reader
	// that resumed a range scan from a hand-kept key once did).
	for _, n := range []int{postings.BatchSize, postings.BatchSize * 2} {
		kl, err := newKeyedList(newTestPool(t))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			kl.Put("term", float64(n-i), DocID(i), postings.OpAdd, 0)
		}
		v := flushedView(t, kl)
		// A one-entry buffer meets every batch boundary exactly.
		for _, size := range []int{1, 100} {
			c := v.Cursor("term")
			count := 0
			buf := make([]postings.Entry, size)
			for count <= n {
				got, err := c.NextBatch(buf)
				if err != nil {
					t.Fatal(err)
				}
				if got == 0 {
					break
				}
				count += got
			}
			if count != n {
				t.Errorf("batch size %d: cursor with %d postings yielded %d", size, n, count)
			}
		}
	}
}

// TestRemainList drives Algorithm 3's flat remainList: rows stay attached to
// their documents through removals and compacting prunes, and a reset list
// reuses its storage.
func TestRemainList(t *testing.T) {
	var r remainList
	for round := 0; round < 2; round++ {
		r.reset(3)
		for doc := DocID(10); doc < 20; doc++ {
			row := r.add(doc)
			for i := range row {
				row[i] = float64(doc)*10 + float64(i)
			}
		}
		r.remove(13)
		r.remove(13) // twice: a no-op
		r.remove(99) // never listed
		var visited []DocID
		err := r.prune(func(doc DocID, row []float64) (bool, error) {
			visited = append(visited, doc)
			for i, w := range row {
				if w != float64(doc)*10+float64(i) {
					t.Fatalf("doc %d row %v", doc, row)
				}
			}
			return doc%2 == 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(visited) != 9 || visited[3] != 14 {
			t.Fatalf("round %d: prune visited %v, want 10..19 without 13, ascending", round, visited)
		}
		r.remove(16)
		if r.live != 4 {
			t.Fatalf("round %d: %d live after pruning the odd documents and removing 16, want 4", round, r.live)
		}
		var kept []DocID
		r.prune(func(doc DocID, row []float64) (bool, error) {
			if row[2] != float64(doc)*10+2 {
				t.Fatalf("doc %d row %v after compaction", doc, row)
			}
			kept = append(kept, doc)
			return true, nil
		})
		if fmt.Sprint(kept) != "[10 12 14 18]" {
			t.Fatalf("round %d: kept %v", round, kept)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		r.reset(3)
		for doc := DocID(0); doc < 10; doc++ {
			r.add(doc)
		}
	}); n != 0 {
		t.Errorf("a reset remainList allocates %.1f objects refilling, want 0", n)
	}
}
