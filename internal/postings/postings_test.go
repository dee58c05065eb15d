package postings

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIDListRoundTrip(t *testing.T) {
	b := NewBlockIDListBuilder()
	ids := []DocID{1, 5, 6, 100, 10000, 10001}
	for _, id := range ids {
		if err := b.Add(id); err != nil {
			t.Fatalf("Add(%d): %v", id, err)
		}
	}
	if b.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(ids))
	}
	it, err := NewStreamIDList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if it.Len() != len(ids) {
		t.Errorf("iterator Len = %d, want %d", it.Len(), len(ids))
	}
	got, err := CollectBatched(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("decoded %d postings, want %d", len(got), len(ids))
	}
	for i, e := range got {
		if e.Doc != ids[i] {
			t.Errorf("posting %d = %d, want %d", i, e.Doc, ids[i])
		}
	}
}

func TestIDListRejectsOutOfOrder(t *testing.T) {
	b := NewBlockIDListBuilder()
	if err := b.Add(10); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(10); err == nil {
		t.Error("duplicate doc accepted")
	}
	if err := b.Add(5); err == nil {
		t.Error("descending doc accepted")
	}
	if err := b.Add(-1); err == nil {
		t.Error("negative doc accepted")
	}
}

func TestIDListEmpty(t *testing.T) {
	b := NewBlockIDListBuilder()
	it, err := NewStreamIDList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := CollectBatched(it); err != nil || len(got) != 0 {
		t.Errorf("empty list yielded %v, %v", got, err)
	}
	it2, err := NewStreamIDList(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := CollectBatched(it2); err != nil || len(got) != 0 {
		t.Errorf("nil list yielded %v, %v", got, err)
	}
}

func TestIDListProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		set := map[DocID]bool{}
		for _, r := range raw {
			set[DocID(r)] = true
		}
		ids := make([]DocID, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		b := NewBlockIDListBuilder()
		for _, id := range ids {
			if err := b.Add(id); err != nil {
				return false
			}
		}
		it, err := NewStreamIDList(bytes.NewReader(b.Bytes()))
		if err != nil {
			return false
		}
		got, err := CollectBatched(it)
		if err != nil || len(got) != len(ids) {
			return false
		}
		for i := range ids {
			if got[i].Doc != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScoreListRoundTrip(t *testing.T) {
	b := NewBlockScoreListBuilder(nil)
	type p struct {
		doc   DocID
		score float64
	}
	ps := []p{{7, 990.5}, {2, 500}, {9, 500}, {1, 87.13}, {4, 0}}
	for _, x := range ps {
		if err := b.Add(x.doc, x.score); err != nil {
			t.Fatalf("Add(%v): %v", x, err)
		}
	}
	it, err := NewStreamScoreList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatched(it)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ps {
		if got[i].Doc != x.doc || got[i].SortKey != x.score {
			t.Errorf("posting %d = (%d, %g), want (%d, %g)", i, got[i].Doc, got[i].SortKey, x.doc, x.score)
		}
	}
}

func TestScoreListRejectsOrderViolations(t *testing.T) {
	b := NewBlockScoreListBuilder(nil)
	if err := b.Add(3, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(4, 200); err == nil {
		t.Error("ascending score accepted")
	}
	if err := b.Add(3, 100); err == nil {
		t.Error("duplicate (doc, score) accepted")
	}
	if err := b.Add(2, 100); err == nil {
		t.Error("same score with descending doc accepted")
	}
}

func TestChunkedListRoundTrip(t *testing.T) {
	b := NewBlockChunkedListBuilder(false)
	if err := b.AddChunk(5, []ChunkPosting{{Doc: 2}, {Doc: 9}, {Doc: 40}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddChunk(4, nil); err != nil {
		t.Fatal(err) // empty chunk is skipped
	}
	if err := b.AddChunk(3, []ChunkPosting{{Doc: 1}, {Doc: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddChunk(1, []ChunkPosting{{Doc: 7}}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 6 || b.Chunks() != 3 {
		t.Fatalf("Len=%d Chunks=%d, want 6 and 3", b.Len(), b.Chunks())
	}
	it, err := NewStreamChunkedList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if it.NumChunks() != 3 {
		t.Errorf("NumChunks = %d, want 3", it.NumChunks())
	}
	got, err := CollectBatched(it)
	if err != nil {
		t.Fatal(err)
	}
	wantDocs := []DocID{2, 9, 40, 1, 2, 7}
	wantCIDs := []int32{5, 5, 5, 3, 3, 1}
	if len(got) != len(wantDocs) {
		t.Fatalf("decoded %d postings, want %d", len(got), len(wantDocs))
	}
	for i := range got {
		if got[i].Doc != wantDocs[i] || got[i].CID != wantCIDs[i] {
			t.Errorf("posting %d = (doc %d, cid %d), want (doc %d, cid %d)",
				i, got[i].Doc, got[i].CID, wantDocs[i], wantCIDs[i])
		}
		if got[i].SortKey != float64(wantCIDs[i]) {
			t.Errorf("posting %d sort key %g, want %d", i, got[i].SortKey, wantCIDs[i])
		}
	}
}

func TestChunkedListRejectsOrderViolations(t *testing.T) {
	b := NewBlockChunkedListBuilder(false)
	if err := b.AddChunk(3, []ChunkPosting{{Doc: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddChunk(3, []ChunkPosting{{Doc: 6}}); err == nil {
		t.Error("repeated chunk ID accepted")
	}
	if err := b.AddChunk(4, []ChunkPosting{{Doc: 6}}); err == nil {
		t.Error("ascending chunk ID accepted")
	}
	if err := b.AddChunk(2, []ChunkPosting{{Doc: 6}, {Doc: 6}}); err == nil {
		t.Error("duplicate doc within chunk accepted")
	}
}

func TestChunkedTermListCarriesScores(t *testing.T) {
	b := NewBlockChunkedListBuilder(true)
	if err := b.AddChunk(2, []ChunkPosting{{Doc: 1, TermScore: 0.5}, {Doc: 3, TermScore: 0.25}}); err != nil {
		t.Fatal(err)
	}
	it, err := NewStreamChunkedList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatched(it)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].TermScore != 0.5 || got[1].TermScore != 0.25 {
		t.Errorf("term scores = %v, %v; want 0.5, 0.25", got[0].TermScore, got[1].TermScore)
	}
}

func TestIDTermListRoundTrip(t *testing.T) {
	b := NewBlockIDTermListBuilder()
	if err := b.Add(3, 0.75); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(8, 0.125); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(8, 0.5); err == nil {
		t.Error("duplicate doc accepted")
	}
	it, err := NewStreamIDTermList(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatched(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Doc != 3 || got[0].TermScore != 0.75 || got[1].Doc != 8 || got[1].TermScore != 0.125 {
		t.Errorf("decoded postings = %+v", got)
	}
}

// The TestUnion*, TestCollapseOps* and TestGroupMerger* tests keep the
// names of the combinators that Overlay and Merge replaced.

// overlayOf collects short laid over long, and requires the reference
// merge-then-collapse of the same postings too.
func overlayOf(t *testing.T, short, long []Entry) []Entry {
	t.Helper()
	o := NewOverlay(NewSliceIterator(short), NewSliceIterator(long))
	defer o.Close()
	got, err := CollectBatched(o)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, "overlay vs reference", got, refCollapse(refMerge(short, long)))
	return got
}

func TestUnionMergesInOrder(t *testing.T) {
	long := []Entry{
		{Doc: 1, SortKey: 90},
		{Doc: 7, SortKey: 80},
		{Doc: 3, SortKey: 50},
	}
	short := []Entry{
		{Doc: 9, SortKey: 95},
		{Doc: 2, SortKey: 80},
		{Doc: 4, SortKey: 10},
	}
	got := overlayOf(t, short, long)
	wantDocs := []DocID{9, 1, 2, 7, 3, 4}
	if len(got) != len(wantDocs) {
		t.Fatalf("overlay produced %d entries, want %d", len(got), len(wantDocs))
	}
	for i := range got {
		if got[i].Doc != wantDocs[i] {
			t.Errorf("overlay[%d].Doc = %d, want %d", i, got[i].Doc, wantDocs[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if Less(got[i], got[i-1]) {
			t.Errorf("overlay out of order at %d", i)
		}
	}
}

func TestUnionEmptyInputs(t *testing.T) {
	if got := overlayOf(t, nil, nil); len(got) != 0 {
		t.Errorf("overlay of empty lists produced %d entries", len(got))
	}
	only := []Entry{{Doc: 3, SortKey: 2}, {Doc: 1, SortKey: 1}}
	if got := overlayOf(t, nil, only); len(got) != 2 {
		t.Errorf("overlay of an empty short list produced %v", got)
	}
	if got := overlayOf(t, []Entry{{Doc: 3, SortKey: 2, Op: OpRem}}, nil); len(got) != 0 {
		t.Errorf("a REM over an empty long list produced %v", got)
	}
}

func TestCollapseOpsRemovesCancelledPostings(t *testing.T) {
	// Long-list posting for doc 5 at key 3, with a REM short posting at the
	// same position: the document no longer contains the term.
	long := []Entry{
		{Doc: 2, SortKey: 3},
		{Doc: 5, SortKey: 3},
		{Doc: 9, SortKey: 3},
		{Doc: 5, SortKey: 1},
	}
	short := []Entry{{Doc: 5, SortKey: 3, Op: OpRem}}
	got := overlayOf(t, short, long)
	wantDocs := []DocID{2, 9, 5}
	if len(got) != len(wantDocs) {
		t.Fatalf("overlay produced %d entries (%v), want %d", len(got), got, len(wantDocs))
	}
	for i := range wantDocs {
		if got[i].Doc != wantDocs[i] {
			t.Errorf("overlay[%d].Doc = %d, want %d", i, got[i].Doc, wantDocs[i])
		}
	}
}

func TestCollapseOpsPrefersShortListEntry(t *testing.T) {
	got := overlayOf(t,
		[]Entry{{Doc: 5, SortKey: 3, TermScore: 0.9}},
		[]Entry{{Doc: 5, SortKey: 3, TermScore: 0.1}})
	if len(got) != 1 || got[0].TermScore != 0.9 {
		t.Errorf("overlay = %+v, want single short-list entry with term score 0.9", got)
	}
}

// drainMerge collects every group a merge returns, with no stop rule.
func drainMerge(t *testing.T, m *Merge) []refGroup {
	t.Helper()
	var out []refGroup
	for {
		g, ok, err := m.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, copyGroup(g))
	}
}

func TestGroupMergerConjunctiveDetection(t *testing.T) {
	// Doc 4 appears in both streams at key 5; doc 6 only in stream 0.
	streams := func() []BatchIterator {
		return []BatchIterator{
			NewSliceIterator([]Entry{{Doc: 4, SortKey: 5}, {Doc: 6, SortKey: 5}, {Doc: 1, SortKey: 2}}),
			NewSliceIterator([]Entry{{Doc: 4, SortKey: 5}, {Doc: 1, SortKey: 2}, {Doc: 3, SortKey: 1}}),
		}
	}
	var full, partial []DocID
	for _, g := range drainMerge(t, NewMerge(1, streams()...)) {
		if g.count == 2 {
			full = append(full, g.doc)
		} else {
			partial = append(partial, g.doc)
		}
	}
	if len(full) != 2 || full[0] != 4 || full[1] != 1 {
		t.Errorf("groups held by both streams = %v, want [4 1]", full)
	}
	if len(partial) != 2 || partial[0] != 6 || partial[1] != 3 {
		t.Errorf("partial groups = %v, want [6 3]", partial)
	}
	// need = 2 returns only the full groups, and ends with stream 0: doc 3
	// is never passed.
	m := NewMerge(2, streams()...)
	got := drainMerge(t, m)
	if len(got) != 2 || got[0].doc != 4 || got[1].doc != 1 || m.Scanned != 5 {
		t.Errorf("conjunctive merge = %+v, scanned %d; want docs [4 1], scanned 5", got, m.Scanned)
	}
}

func TestGroupMergerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	makeStream := func() *SliceIterator {
		var entries []Entry
		key := 100.0
		for i := 0; i < 50; i++ {
			key -= rng.Float64()
			entries = append(entries, Entry{Doc: DocID(rng.Intn(20)), SortKey: key})
		}
		return NewSliceIterator(entries)
	}
	groups := drainMerge(t, NewMerge(1, makeStream(), makeStream(), makeStream()))
	for i := 1; i < len(groups); i++ {
		g, prev := groups[i], groups[i-1]
		if g.sortKey > prev.sortKey || (g.sortKey == prev.sortKey && g.doc <= prev.doc) {
			t.Fatalf("groups out of order: (%g,%d) after (%g,%d)", g.sortKey, g.doc, prev.sortKey, prev.doc)
		}
	}
}

func TestGroupMergerEmpty(t *testing.T) {
	for need := 1; need <= 2; need++ {
		m := NewMerge(need, NewSliceIterator(nil), NewSliceIterator(nil))
		if _, ok, err := m.Next(nil); ok || err != nil || m.Scanned != 0 {
			t.Errorf("Next on an empty merge (need %d) = %v, %v, scanned %d", need, ok, err, m.Scanned)
		}
	}
}
