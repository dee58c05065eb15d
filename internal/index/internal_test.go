package index

import (
	"fmt"
	"math/rand"
	"testing"

	"svrdb/internal/postings"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
)

// Tests for the internal building blocks shared by the index methods: the
// Score table, the ListScore/ListChunk table, and the B+-tree-backed keyed
// posting lists (short lists and the Score method's clustered lists).

func newTestPool(tb testing.TB) *buffer.Pool {
	tb.Helper()
	return buffer.MustNew(pagefile.MustNewMem(1024), 2048)
}

func TestScoreTableBasics(t *testing.T) {
	st, err := newDocTable(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(5); ok {
		t.Error("empty table reported a score")
	}
	if err := st.Put(5, docRow{val: 87.13}); err != nil {
		t.Fatal(err)
	}
	r, ok, err := st.Get(5)
	if err != nil || !ok || r.flag || r.val != 87.13 {
		t.Errorf("Get = %+v %v %v", r, ok, err)
	}
	if err := st.Put(5, docRow{val: 124.2}); err != nil {
		t.Fatal(err)
	}
	if r, _, _ = st.Get(5); r.val != 124.2 {
		t.Errorf("score after update = %v", r.val)
	}
	if err := st.MarkDeleted(5); err != nil {
		t.Fatal(err)
	}
	if r, ok, _ = st.Get(5); !ok || !r.flag || r.val != 124.2 {
		t.Errorf("after MarkDeleted: %+v %v", r, ok)
	}
	if _, live, _ := rowScore(st.Get(5)); live {
		t.Error("a deleted document reads as live")
	}
	// Re-setting the score clears the deleted flag (ID reuse).
	if err := st.Put(5, docRow{val: 10}); err != nil {
		t.Fatal(err)
	}
	if r, _, _ = st.Get(5); r.flag {
		t.Error("Put did not clear the deleted flag")
	}
	if err := st.MarkDeleted(999); err == nil {
		t.Error("MarkDeleted of unknown doc succeeded")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

func TestScoreTableForEach(t *testing.T) {
	st, err := newDocTable(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := st.Put(DocID(i), docRow{val: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.MarkDeleted(7); err != nil {
		t.Fatal(err)
	}
	var docs []DocID
	deletedCount := 0
	if err := st.ForEach(func(doc DocID, r docRow) bool {
		docs = append(docs, doc)
		if r.flag {
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

// TestListTable drives the table as ListScore/ListChunk does: rows written
// with the flag set, through the staged overlay and the frozen view.
func TestListTable(t *testing.T) {
	lt, err := newDocTable(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := lt.Get(3); ok {
		t.Error("empty table returned an entry")
	}
	if err := lt.Put(3, docRow{val: 87.13}); err != nil {
		t.Fatal(err)
	}
	e, ok, err := lt.Get(3)
	if err != nil || !ok || e != (docRow{val: 87.13}) {
		t.Errorf("Get = %+v %v %v", e, ok, err)
	}
	lt.beginBatch()
	if err := lt.Put(3, docRow{val: 124.2, flag: true}); err != nil {
		t.Fatal(err)
	}
	if e, _, _ = lt.Get(3); e != (docRow{val: 124.2, flag: true}) {
		t.Errorf("staged entry = %+v", e)
	}
	if e, _, _ = lt.snapshotView().Get(3); e != (docRow{val: 87.13}) {
		t.Errorf("view saw the staged entry before the flush: %+v", e)
	}
	if err := lt.flushBatch(); err != nil {
		t.Fatal(err)
	}
	if e, _, _ = lt.snapshotView().Get(3); e != (docRow{val: 124.2, flag: true}) {
		t.Errorf("entry after flush = %+v", e)
	}
	if lt.Len() != 1 {
		t.Errorf("Len = %d", lt.Len())
	}
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
		if err := kl.Put(x.term, x.key, x.doc, postings.OpAdd, float32(x.key)); err != nil {
			t.Fatal(err)
		}
		inserted[fmt.Sprintf("%s/%v/%d", x.term, x.key, x.doc)] = true
	}
	if kl.Len() != len(inserted) {
		t.Errorf("Len = %d, want %d distinct postings", kl.Len(), len(inserted))
	}
	entries, err := kl.Collect("news")
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
		if !e.FromShort {
			t.Error("collected entries must be marked FromShort")
		}
		if e.TermScore != float32(e.SortKey) {
			t.Errorf("term score %v does not round-trip (key %v)", e.TermScore, e.SortKey)
		}
	}
	// Other term must not leak into this term's entries.
	gateEntries, _ := kl.Collect("gate")
	if len(entries)+len(gateEntries) != kl.Len() {
		t.Errorf("per-term collects (%d + %d) do not cover all %d postings", len(entries), len(gateEntries), kl.Len())
	}
}

func TestKeyedListDeleteAndDeleteAllForDoc(t *testing.T) {
	kl, err := newKeyedList(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := kl.Put("news", float64(i), 42, postings.OpAdd, 0); err != nil {
			t.Fatal(err)
		}
		if err := kl.Put("news", float64(i), 43, postings.OpAdd, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := kl.Delete("news", 3, 42); err != nil {
		t.Fatal(err)
	}
	if kl.Len() != 19 {
		t.Errorf("Len after single delete = %d, want 19", kl.Len())
	}
	// Deleting a missing posting is a no-op.
	if err := kl.Delete("news", 99, 42); err != nil {
		t.Fatal(err)
	}
	if kl.Len() != 19 {
		t.Errorf("Len after no-op delete = %d", kl.Len())
	}
	if err := kl.DeleteAllForDoc("news", 42); err != nil {
		t.Fatal(err)
	}
	entries, _ := kl.Collect("news")
	if len(entries) != 10 {
		t.Errorf("after DeleteAllForDoc, %d postings remain, want 10 (doc 43 only)", len(entries))
	}
	for _, e := range entries {
		if e.Doc != 43 {
			t.Errorf("posting for doc %d survived DeleteAllForDoc", e.Doc)
		}
	}
}

func TestTreeCursorStreamsInBatches(t *testing.T) {
	kl, err := newKeyedList(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	// More postings than one cursor batch.
	const n = cursorBatchSize*3 + 17
	for i := 0; i < n; i++ {
		if err := kl.Put("term", float64(n-i), DocID(i), postings.OpAdd, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A different term that must not be visited.
	if err := kl.Put("other", 1, 1, postings.OpAdd, 0); err != nil {
		t.Fatal(err)
	}
	got, err := postings.CollectBatched(kl.Cursor("term", false))
	if err != nil {
		t.Fatal(err)
	}
	prevKey := float64(1 << 30)
	for _, e := range got {
		if e.SortKey > prevKey {
			t.Fatalf("cursor order violated: %v after %v", e.SortKey, prevKey)
		}
		prevKey = e.SortKey
		if e.FromShort {
			t.Error("cursor with fromShort=false produced FromShort entries")
		}
	}
	if len(got) != n {
		t.Errorf("cursor visited %d postings, want %d", len(got), n)
	}
	// Cursor over an absent term terminates immediately.
	if got, err := postings.CollectBatched(kl.Cursor("absent", false)); err != nil || len(got) != 0 {
		t.Errorf("cursor over absent term yielded %d postings, err %v", len(got), err)
	}
}

func TestKeyedListSizeBytes(t *testing.T) {
	kl, err := newKeyedList(newTestPool(t))
	if err != nil {
		t.Fatal(err)
	}
	if sz, err := kl.SizeBytes(); err != nil || sz != 0 {
		t.Errorf("empty SizeBytes = %d, %v", sz, err)
	}
	for i := 0; i < 100; i++ {
		if err := kl.Put("t", float64(i), DocID(i), postings.OpAdd, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	sz, err := kl.SizeBytes()
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
	// Regression: when a term's posting count is an exact multiple of the
	// cursor batch size the range scan used to end without recording a
	// resume point, so the next refill re-yielded the same batch forever.
	for _, n := range []int{cursorBatchSize, cursorBatchSize * 2} {
		kl, err := newKeyedList(newTestPool(t))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := kl.Put("term", float64(n-i), DocID(i), postings.OpAdd, 0); err != nil {
				t.Fatal(err)
			}
		}
		// A one-entry buffer refills at every cursor batch boundary exactly.
		for _, size := range []int{1, 100} {
			c := kl.Cursor("term", false)
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
