package postings

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// This file holds the property tests for the block-at-a-time protocol: every
// long-list layout and every combinator must produce the same entry stream —
// the reference one — for any batch buffer size.

// collectBatchSize drains src with a fixed batch buffer size.
func collectBatchSize(t *testing.T, src BatchIterator, size int) []Entry {
	t.Helper()
	var out []Entry
	buf := make([]Entry, size)
	for {
		n, err := src.NextBatch(buf)
		if err != nil {
			t.Fatalf("NextBatch(size %d): %v", size, err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func sameEntries(t *testing.T, label string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// batchSizes exercises the interesting buffer shapes: degenerate, prime-ish,
// and the production size.
var batchSizes = []int{1, 3, 7, BatchSize}

// --- layout equivalence --------------------------------------------------------

// randomAscendingDocs produces a strictly ascending docID sequence.
func randomAscendingDocs(rng *rand.Rand, n int) []DocID {
	docs := make([]DocID, n)
	cur := DocID(0)
	for i := range docs {
		cur += DocID(1 + rng.Intn(1000))
		docs[i] = cur
	}
	return docs
}

// layoutCase is one encoded long list and the postings it was built from.
type layoutCase struct {
	name string
	data []byte
	want []Entry
}

func buildLayoutCases(t *testing.T, rng *rand.Rand, n int) []layoutCase {
	t.Helper()
	var cases []layoutCase

	idb := NewBlockIDListBuilder()
	var want []Entry
	for _, d := range randomAscendingDocs(rng, n) {
		if err := idb.Add(d); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Doc: d})
	}
	cases = append(cases, layoutCase{name: "id", data: idb.Bytes(), want: want})

	sb := NewBlockScoreListBuilder(nil)
	want = nil
	score := 1e9
	lastDoc := DocID(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 || i == 0 {
			score -= rng.Float64() * 100
			lastDoc = 0
		}
		lastDoc += DocID(1 + rng.Intn(1000))
		if err := sb.Add(lastDoc, score); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Doc: lastDoc, SortKey: score})
	}
	cases = append(cases, layoutCase{name: "score", data: sb.Bytes(), want: want})

	for _, withTerm := range []bool{false, true} {
		cb := NewBlockChunkedListBuilder(withTerm)
		want = nil
		name := "chunk"
		if withTerm {
			name = "chunk-term"
		}
		cid := int32(1000)
		remaining := n
		for remaining > 0 {
			sz := 1 + rng.Intn(remaining)
			posts := make([]ChunkPosting, 0, sz)
			for _, d := range randomAscendingDocs(rng, sz) {
				p := ChunkPosting{Doc: d}
				if withTerm {
					p.TermScore = rng.Float32()
				}
				posts = append(posts, p)
				want = append(want, Entry{Doc: d, CID: cid, SortKey: float64(cid), TermScore: p.TermScore})
			}
			if err := cb.AddChunk(cid, posts); err != nil {
				t.Fatal(err)
			}
			cid -= int32(1 + rng.Intn(5))
			remaining -= sz
		}
		cases = append(cases, layoutCase{name: name, data: cb.Bytes(), want: want})
	}

	itb := NewBlockIDTermListBuilder()
	want = nil
	for _, d := range randomAscendingDocs(rng, n) {
		w := rng.Float32()
		if err := itb.Add(d, w); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Doc: d, TermScore: w})
	}
	cases = append(cases, layoutCase{name: "id-term", data: itb.Bytes(), want: want})

	return cases
}

// streamFor decodes data with the matching stream decoder.
func streamFor(t *testing.T, name string, data []byte) BatchIterator {
	t.Helper()
	r := bytes.NewReader(data)
	var (
		s   BatchIterator
		err error
	)
	switch name {
	case "id":
		s, err = NewStreamIDList(r)
	case "score":
		s, err = NewStreamScoreList(r)
	case "chunk", "chunk-term":
		s, err = NewStreamChunkedList(r)
	case "id-term":
		s, err = NewStreamIDTermList(r)
	default:
		t.Fatalf("unknown layout %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLayoutBatchSizeIndependence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(700) // includes empty lists
		for _, c := range buildLayoutCases(t, rng, n) {
			for _, size := range batchSizes {
				got := collectBatchSize(t, streamFor(t, c.name, c.data), size)
				sameEntries(t, c.name+"/stream", got, c.want)
			}
		}
	}
}

// --- combinator equivalence ----------------------------------------------------

// randomSortedStream produces entries in (SortKey desc, Doc asc) order with
// deliberate position collisions, short-list flags and ADD/REM ops.
func randomSortedStream(rng *rand.Rand, n int, fromShort bool) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		e := Entry{
			// Few distinct keys and docs force same-position runs both
			// within and across streams.
			SortKey:   float64(rng.Intn(8)),
			Doc:       DocID(rng.Intn(30)),
			TermScore: rng.Float32(),
			FromShort: fromShort,
		}
		if fromShort && rng.Intn(4) == 0 {
			e.Op = OpRem
		}
		entries[i] = e
	}
	sort.SliceStable(entries, func(i, j int) bool { return Less(entries[i], entries[j]) })
	return entries
}

// refMerge is a reference k-way merge: concatenate with stream indexes,
// stable-sort by position keeping stream order on ties.
func refMerge(streams ...[]Entry) []Entry {
	type tagged struct {
		e      Entry
		stream int
	}
	var all []tagged
	for si, s := range streams {
		for _, e := range s {
			all = append(all, tagged{e: e, stream: si})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if !SamePosition(a.e, b.e) {
			return Less(a.e, b.e)
		}
		return a.stream < b.stream
	})
	out := make([]Entry, len(all))
	for i, tg := range all {
		out[i] = tg.e
	}
	return out
}

// refCollapse is a reference implementation of the ADD/REM collapse.
func refCollapse(entries []Entry) []Entry {
	var out []Entry
	for i := 0; i < len(entries); {
		j := i
		removed := false
		best := entries[i]
		for ; j < len(entries) && SamePosition(entries[j], entries[i]); j++ {
			if entries[j].Op == OpRem {
				removed = true
			}
			if entries[j].FromShort && !best.FromShort {
				best = entries[j]
			}
		}
		if !removed {
			out = append(out, best)
		}
		i = j
	}
	return out
}

func TestUnionBatchedMatchesReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		k := 1 + rng.Intn(4)
		streams := make([][]Entry, k)
		for i := range streams {
			streams[i] = randomSortedStream(rng, rng.Intn(120), i == 0)
		}
		want := refMerge(streams...)

		mk := func() []BatchIterator {
			srcs := make([]BatchIterator, k)
			for i := range streams {
				srcs[i] = NewSliceIterator(streams[i])
			}
			return srcs
		}

		for _, size := range batchSizes {
			u := NewUnion(mk()...)
			sameEntries(t, "union/batched", collectBatchSize(t, u, size), want)
			u.Close()
		}
	}
}

func TestCollapseOpsBatchedMatchesReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		long := randomSortedStream(rng, rng.Intn(150), false)
		short := randomSortedStream(rng, rng.Intn(60), true)
		want := refCollapse(refMerge(short, long))

		build := func() *CollapseOps {
			return NewCollapseOps(NewUnion(NewSliceIterator(short), NewSliceIterator(long)))
		}
		for _, size := range batchSizes {
			c := build()
			sameEntries(t, "collapse/batched", collectBatchSize(t, c, size), want)
			c.Close()
		}
	}
}

// refGroup mirrors Group with owned slices for comparison.
type refGroup struct {
	doc     DocID
	sortKey float64
	entries []Entry
	present []bool
	count   int
}

// refGroups is the reference grouping of the merged streams.
func refGroups(streams ...[]Entry) []refGroup {
	type tagged struct {
		e      Entry
		stream int
	}
	var all []tagged
	for si, s := range streams {
		for _, e := range s {
			all = append(all, tagged{e: e, stream: si})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if !SamePosition(a.e, b.e) {
			return Less(a.e, b.e)
		}
		return a.stream < b.stream
	})
	var out []refGroup
	for i := 0; i < len(all); {
		g := refGroup{
			doc:     all[i].e.Doc,
			sortKey: all[i].e.SortKey,
			entries: make([]Entry, len(streams)),
			present: make([]bool, len(streams)),
		}
		j := i
		for ; j < len(all) && SamePosition(all[j].e, all[i].e); j++ {
			g.entries[all[j].stream] = all[j].e
			if !g.present[all[j].stream] {
				g.present[all[j].stream] = true
				g.count++
			}
		}
		out = append(out, g)
		i = j
	}
	return out
}

func collectGroups(t *testing.T, m *GroupMerger) []refGroup {
	t.Helper()
	var out []refGroup
	for {
		g, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		// Copy out: the merger reuses the group's slices.
		cp := refGroup{
			doc:     g.Doc,
			sortKey: g.SortKey,
			entries: make([]Entry, len(g.Entries)),
			present: append([]bool(nil), g.Present...),
			count:   g.Count,
		}
		for i, p := range g.Present {
			if p {
				cp.entries[i] = g.Entries[i]
			}
		}
		out = append(out, cp)
	}
}

func sameGroups(t *testing.T, label string, got, want []refGroup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.doc != w.doc || g.sortKey != w.sortKey || g.count != w.count {
			t.Fatalf("%s: group %d = (%g,%d,count %d), want (%g,%d,count %d)",
				label, i, g.sortKey, g.doc, g.count, w.sortKey, w.doc, w.count)
		}
		for s := range w.present {
			if g.present[s] != w.present[s] {
				t.Fatalf("%s: group %d stream %d present = %v, want %v", label, i, s, g.present[s], w.present[s])
			}
			if w.present[s] && g.entries[s] != w.entries[s] {
				t.Fatalf("%s: group %d stream %d entry = %+v, want %+v", label, i, s, g.entries[s], w.entries[s])
			}
		}
	}
}

func TestGroupMergerBatchedMatchesReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		k := 1 + rng.Intn(4)
		// Group inputs must have distinct positions within one stream, as the
		// per-term pipelines guarantee after CollapseOps.
		streams := make([][]Entry, k)
		for i := range streams {
			streams[i] = refCollapse(randomSortedStream(rng, rng.Intn(100), false))
		}
		want := refGroups(streams...)

		srcs := make([]BatchIterator, k)
		for i := range streams {
			srcs[i] = NewSliceIterator(streams[i])
		}
		m := NewGroupMerger(srcs...)
		sameGroups(t, "groups", collectGroups(t, m), want)
		m.Close()
	}
}

// TestPipelineBatchSizeIndependence runs the full per-term read pipeline —
// stream-decoded long list ∪ short list, collapsed — at every batch size
// and requires the reference output, including ADD/REM short-list
// interleavings that cancel long-list postings.
func TestPipelineBatchSizeIndependence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(400 + trial)))

		// Long list: a score-ordered stream layout.
		sb := NewBlockScoreListBuilder(nil)
		score := 1000.0
		var longEntries []Entry
		lastDoc := DocID(0)
		for i := 0; i < 60+rng.Intn(200); i++ {
			if rng.Intn(3) > 0 || i == 0 {
				score -= 1 + rng.Float64()
				lastDoc = 0
			}
			lastDoc += DocID(1 + rng.Intn(50))
			if err := sb.Add(lastDoc, score); err != nil {
				t.Fatal(err)
			}
			longEntries = append(longEntries, Entry{Doc: lastDoc, SortKey: score})
		}
		data := sb.Bytes()

		// Short list: entries colliding with long-list positions, some REMs.
		var short []Entry
		for _, le := range longEntries {
			if rng.Intn(5) == 0 {
				e := Entry{Doc: le.Doc, SortKey: le.SortKey, TermScore: rng.Float32(), FromShort: true}
				if rng.Intn(2) == 0 {
					e.Op = OpRem
				}
				short = append(short, e)
			}
		}
		sort.SliceStable(short, func(i, j int) bool { return Less(short[i], short[j]) })

		want := refCollapse(refMerge(short, longEntries))

		for _, size := range batchSizes {
			c := NewCollapseOps(NewUnion(NewSliceIterator(short), streamFor(t, "score", data)))
			sameEntries(t, "pipeline", collectBatchSize(t, c, size), want)
			c.Close()
		}
	}
}
