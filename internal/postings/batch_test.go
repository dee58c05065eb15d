package postings

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
	name   string
	layout Layout
	data   []byte
	want   []Entry
}

func buildLayoutCases(t *testing.T, rng *rand.Rand, n int) []layoutCase {
	t.Helper()
	var cases []layoutCase
	add := func(name string, layout Layout, want []Entry) {
		cases = append(cases, layoutCase{name: name, layout: layout, data: writeList(t, layout, nil, want), want: want})
	}

	var want []Entry
	for _, d := range randomAscendingDocs(rng, n) {
		want = append(want, Entry{Doc: d})
	}
	add("id", LayoutID, want)

	want = nil
	score := 1e9
	lastDoc := DocID(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 || i == 0 {
			score -= rng.Float64() * 100
			lastDoc = 0
		}
		lastDoc += DocID(1 + rng.Intn(1000))
		want = append(want, Entry{Doc: lastDoc, SortKey: score})
	}
	add("score", LayoutScore, want)

	for _, withTerm := range []bool{false, true} {
		want = nil
		name := "chunk"
		if withTerm {
			name = "chunk-term"
		}
		cid := int32(1000)
		remaining := n
		for remaining > 0 {
			sz := 1 + rng.Intn(remaining)
			for _, d := range randomAscendingDocs(rng, sz) {
				e := Entry{Doc: d, SortKey: float64(cid)}
				if withTerm {
					e.TermScore = rng.Float32()
				}
				want = append(want, e)
			}
			cid -= int32(1 + rng.Intn(5))
			remaining -= sz
		}
		add(name, chunkLayout(withTerm), want)
	}

	want = nil
	for _, d := range randomAscendingDocs(rng, n) {
		want = append(want, Entry{Doc: d, TermScore: rng.Float32()})
	}
	add("id-term", LayoutIDTerm, want)

	return cases
}

func TestLayoutBatchSizeIndependence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(700) // includes empty lists
		for _, c := range buildLayoutCases(t, rng, n) {
			for _, size := range batchSizes {
				got := collectBatchSize(t, openList(t, c.data, nil, c.layout), size)
				sameEntries(t, c.name+"/stream", got, c.want)
			}
		}
	}
}

// --- combinator equivalence ----------------------------------------------------

// randomSortedStream produces entries in (SortKey desc, Doc asc) order with
// deliberate position collisions and, in a short list, REM ops.
func randomSortedStream(rng *rand.Rand, n int, short bool) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		e := Entry{
			// Few distinct keys and docs force same-position runs both
			// within and across streams.
			SortKey:   float64(rng.Intn(8)),
			Doc:       DocID(rng.Intn(30)),
			TermScore: rng.Float32(),
		}
		if short && rng.Intn(4) == 0 {
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

// refCollapse is a reference implementation of the ADD/REM collapse over
// refMerge(short, long): the first entry at a position is the short list's
// when it has one.
func refCollapse(entries []Entry) []Entry {
	var out []Entry
	for i := 0; i < len(entries); {
		j := i
		removed := false
		for ; j < len(entries) && SamePosition(entries[j], entries[i]); j++ {
			if entries[j].Op == OpRem {
				removed = true
			}
		}
		if !removed {
			out = append(out, entries[i])
		}
		i = j
	}
	return out
}

// distinctPositions keeps the first entry at each position of a sorted
// stream: the overlay's inputs, a short list keyed by (term, sortKey, doc)
// and a long list with one posting per document, never repeat one.
func distinctPositions(entries []Entry) []Entry {
	var out []Entry
	for _, e := range entries {
		if len(out) == 0 || !SamePosition(out[len(out)-1], e) {
			out = append(out, e)
		}
	}
	return out
}

// checkOverlayBatched lays random short lists over random long lists that
// collide with them at many positions, trials times from seed on, and
// requires the reference merge-then-collapse at every batch size.  With
// rems false every short posting is an ADD, so the overlay is a plain
// ordered union in which the short posting wins a shared position.
func checkOverlayBatched(t *testing.T, seed int64, trials int, rems bool) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)))
		long := distinctPositions(randomSortedStream(rng, rng.Intn(150), false))
		short := distinctPositions(randomSortedStream(rng, rng.Intn(60), true))
		if !rems {
			for i := range short {
				short[i].Op = OpAdd
			}
		}
		want := refCollapse(refMerge(short, long))
		for _, size := range batchSizes {
			o := NewOverlay(NewSliceIterator(short), NewSliceIterator(long))
			sameEntries(t, "overlay/batched", collectBatchSize(t, o, size), want)
			o.Close()
		}
	}
}

func TestUnionBatchedMatchesReference(t *testing.T) {
	checkOverlayBatched(t, 100, 40, false)
}

func TestCollapseOpsBatchedMatchesReference(t *testing.T) {
	checkOverlayBatched(t, 200, 80, true)
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

// copyGroup copies g out of the merge, which reuses its slices.
func copyGroup(g *Group) refGroup {
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
	return cp
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
		// Distinct positions within one stream, as every per-term stream has.
		streams := make([][]Entry, k)
		for i := range streams {
			streams[i] = distinctPositions(randomSortedStream(rng, rng.Intn(100), false))
		}
		want := refGroups(streams...)

		srcs := make([]BatchIterator, k)
		for i := range streams {
			srcs[i] = NewSliceIterator(streams[i])
		}
		m := NewMerge(1, srcs...)
		sameGroups(t, "groups", drainMerge(t, m), want)
		m.Close()
	}
}

// TestPipelineBatchSizeIndependence runs the full per-term read pipeline —
// a short list laid over a stream-decoded long list — at every batch size
// and requires the reference output, including ADD/REM short-list
// interleavings that cancel long-list postings.
func TestPipelineBatchSizeIndependence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(400 + trial)))

		// Long list: a score-ordered stream layout.
		score := 1000.0
		var longEntries []Entry
		lastDoc := DocID(0)
		for i := 0; i < 60+rng.Intn(200); i++ {
			if rng.Intn(3) > 0 || i == 0 {
				score -= 1 + rng.Float64()
				lastDoc = 0
			}
			lastDoc += DocID(1 + rng.Intn(50))
			longEntries = append(longEntries, Entry{Doc: lastDoc, SortKey: score})
		}
		data := writeList(t, LayoutScore, nil, longEntries)

		// Short list: entries colliding with long-list positions, some REMs.
		var short []Entry
		for _, le := range longEntries {
			if rng.Intn(5) == 0 {
				e := Entry{Doc: le.Doc, SortKey: le.SortKey, TermScore: rng.Float32()}
				if rng.Intn(2) == 0 {
					e.Op = OpRem
				}
				short = append(short, e)
			}
		}
		sort.SliceStable(short, func(i, j int) bool { return Less(short[i], short[j]) })

		want := refCollapse(refMerge(short, longEntries))

		for _, size := range batchSizes {
			o := NewOverlay(NewSliceIterator(short), openList(t, data, nil, LayoutScore))
			sameEntries(t, "pipeline", collectBatchSize(t, o, size), want)
			o.Close()
		}
	}
}

// capBatch serves its source in batches of at most size entries.
type capBatch struct {
	src  BatchIterator
	size int
}

func (c capBatch) NextBatch(buf []Entry) (int, error) {
	return c.src.NextBatch(buf[:min(len(buf), c.size)])
}

// seekSlice serves entries in batches of at most size and seeks as the ID
// layouts' SeekDoc does: to the first entry with Doc >= doc.
type seekSlice struct {
	entries []Entry
	size    int
}

func (s *seekSlice) NextBatch(buf []Entry) (int, error) {
	n := copy(buf[:min(len(buf), s.size)], s.entries)
	s.entries = s.entries[n:]
	return n, nil
}

func (s *seekSlice) SeekDoc(doc DocID) error {
	i, _ := slices.BinarySearchFunc(s.entries, doc, func(e Entry, d DocID) int { return cmp.Compare(e.Doc, d) })
	s.entries = s.entries[i:]
	return nil
}

// checkMerge merges the streams, each served in batches of at most size,
// and requires, at need = 1 with no stop rule, the brute-force grouping:
// every entry sorted by (SortKey desc, Doc asc), grouped by position, a
// stream's last entry at a position standing for it.  It then checks the
// merge at every need from 1 to k against the brute-force scan under the
// stop rule seeded by stop (see checkScan), and the conjunctive merge of
// the streams flattened to one sort key, some of them seekable, against
// the brute-force intersection (see checkSeek).
func checkMerge(t *testing.T, label string, size int, stop uint8, streams ...[]Entry) {
	t.Helper()
	srcs := make([]BatchIterator, len(streams))
	for i := range streams {
		srcs[i] = capBatch{src: NewSliceIterator(streams[i]), size: size}
	}
	m := NewMerge(1, srcs...)
	defer m.Close()
	sameGroups(t, label, drainMerge(t, m), refGroups(streams...))
	if _, ok, err := m.Next(nil); ok || err != nil {
		t.Fatalf("%s: Next after exhaustion = %v, %v", label, ok, err)
	}
	for need := 1; need <= len(streams); need++ {
		checkScan(t, fmt.Sprintf("%s/need=%d", label, need), size, need, stop, streams...)
	}
	checkSeek(t, label+"/seek", size, stop, streams...)
}

// seededStop is a stop rule shaped like the top-k scan's: it can fire only
// once `after` matches are held, and then at a sort key below a bound that
// rises with every match, as the heap's minimum does.  Its answer depends
// on the position's sort key and on the matches taken so far, and on
// nothing else.
type seededStop struct {
	after   int
	base    float64
	matches int
	firedAt float64 // the sort key it fired at
	fired   bool
}

// newSeededStop unpacks a seed: the low three bits are the bound's base
// (sort keys of the fuzzed streams are 0–7), the high five bits the
// matches needed.
func newSeededStop(seed uint8) *seededStop {
	return &seededStop{after: int(seed >> 3), base: float64(seed & 7)}
}

func (s *seededStop) stops(sortKey float64) bool {
	if s.matches >= s.after && sortKey < s.base+float64(s.matches)/4 {
		s.firedAt, s.fired = sortKey, true
		return true
	}
	return false
}

// scanMerge is the one Merge every checkScan resets, as a query context
// does, so each scan also checks that a Reset merge — after merges of other
// widths and needs, stopped anywhere — is a fresh one.
var scanMerge Merge

// checkScan merges the streams through a Merge of the given need, each
// served in batches of at most size, and requires what the brute-force
// grouping gives a scan that tests the seeded stop rule at every position
// and, at need = k, ends at the first position past a stream's last: the
// same groups held by at least need streams, in the same order, with the
// same entries; the same scanned count (each position's stream count, up to
// and including the one that stops the scan); and a stop at the same
// position — a stop elsewhere would change the count, since every position
// counts at least one posting.
func checkScan(t *testing.T, label string, size, need int, stop uint8, streams ...[]Entry) {
	t.Helper()
	ref := newSeededStop(stop)
	var want []refGroup
	wantScanned := 0
	for _, g := range refGroups(streams...) {
		if need == len(streams) && slices.ContainsFunc(streams, func(s []Entry) bool {
			return len(s) == 0 || Less(s[len(s)-1], Entry{SortKey: g.sortKey, Doc: g.doc})
		}) {
			break
		}
		wantScanned += g.count
		if ref.stops(g.sortKey) {
			break
		}
		if g.count >= need {
			want = append(want, g)
			ref.matches++
		}
	}

	srcs := make([]BatchIterator, len(streams))
	for i := range streams {
		srcs[i] = capBatch{src: NewSliceIterator(streams[i]), size: size}
	}
	m := &scanMerge
	m.Reset(need, srcs...)
	defer m.Close()
	rule := newSeededStop(stop)
	var got []refGroup
	for {
		g, ok, err := m.Next(rule.stops)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, copyGroup(g))
		rule.matches++
	}
	sameGroups(t, label, got, want)
	if m.Scanned != wantScanned || m.Stopped != ref.fired || rule.fired != ref.fired || rule.firedAt != ref.firedAt {
		t.Fatalf("%s: scanned %d, stopped %v at key %g; brute force scanned %d, stopped %v at key %g",
			label, m.Scanned, m.Stopped, rule.firedAt, wantScanned, ref.fired, ref.firedAt)
	}
	if _, ok, err := m.Next(rule.stops); ok || err != nil {
		t.Fatalf("%s: Next after the end = %v, %v", label, ok, err)
	}
}

// checkSeek flattens every stream to sort key 0 (its documents ascending,
// one entry each) and merges them conjunctively, stream i seekable when bit
// i of seed is set, each served in batches of at most size.  It requires
// the brute-force intersection, in ascending order, with every stream's
// entry.  With every stream seekable the scanned count must be the
// textbook leapfrog's: each seek counts the posting it leaves, each match
// its k postings, and no other position is passed; otherwise it must not
// exceed the postings the streams hold.
func checkSeek(t *testing.T, label string, size int, seed uint8, streams ...[]Entry) {
	t.Helper()
	k := len(streams)
	flat := make([][]Entry, k)
	total := 0
	for i, s := range streams {
		f := slices.Clone(s)
		for j := range f {
			f[j].SortKey = 0
		}
		sort.SliceStable(f, func(a, b int) bool { return f[a].Doc < f[b].Doc })
		flat[i] = distinctPositions(f)
		total += len(flat[i])
	}
	var want []refGroup
	for _, g := range refGroups(flat...) {
		if g.count == k {
			want = append(want, g)
		}
	}

	srcs := make([]BatchIterator, k)
	allSeek := true
	for i := range flat {
		if seed>>i&1 == 1 {
			srcs[i] = &seekSlice{entries: flat[i], size: size}
		} else {
			srcs[i] = capBatch{src: NewSliceIterator(flat[i]), size: size}
			allSeek = false
		}
	}
	m := NewMerge(k, srcs...)
	defer m.Close()
	sameGroups(t, label, drainMerge(t, m), want)
	if m.Stopped || m.Scanned > total {
		t.Fatalf("%s: scanned %d of %d postings, stopped %v", label, m.Scanned, total, m.Stopped)
	}
	if allSeek {
		if wantScanned := leapfrogScanned(flat); m.Scanned != wantScanned {
			t.Fatalf("%s: every stream seekable: scanned %d, the textbook leapfrog %d", label, m.Scanned, wantScanned)
		}
	}
}

// leapfrogScanned is the textbook leapfrog join of streams ascending by
// document: every head behind the latest one seeks to it, in stream order,
// until all agree (a match, which steps every head) or one is exhausted.
// It returns the postings it counts: one per seek, for the posting left,
// and k per match.
func leapfrogScanned(streams [][]Entry) int {
	pos := make([]int, len(streams))
	scanned := 0
	for {
		target := DocID(0)
		for i, s := range streams {
			if pos[i] == len(s) {
				return scanned
			}
			target = max(target, s[pos[i]].Doc)
		}
		moved := false
		for i, s := range streams {
			if s[pos[i]].Doc < target {
				scanned++
				for pos[i] < len(s) && s[pos[i]].Doc < target {
					pos[i]++
				}
				if pos[i] == len(s) {
					return scanned
				}
				moved = true
			}
		}
		if !moved {
			scanned += len(streams)
			for i := range pos {
				pos[i]++
			}
		}
	}
}

// TestGroupMergerMatchesBruteForce covers 1–5 streams with empty and early-
// exhausted streams and duplicate positions within one stream (the merge
// folds them into one group), from sources that hand out one entry per
// batch and a full BatchSize per batch: the full grouping, the merge at
// every need under a stop rule seeded per trial, and the conjunctive merge
// with seekable streams.
func TestGroupMergerMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		streams := make([][]Entry, 1+trial%5)
		for i := range streams {
			switch rng.Intn(4) {
			case 0: // empty
			case 1: // exhausted early: only the highest keys
				streams[i] = randomSortedStream(rng, 1+rng.Intn(3), false)
				for j := range streams[i] {
					streams[i][j].SortKey += 8
				}
			default: // duplicates within the stream included
				streams[i] = randomSortedStream(rng, rng.Intn(2*BatchSize+50), i%2 == 1)
			}
		}
		stop := uint8(rng.Intn(256))
		for _, size := range []int{1, BatchSize} {
			checkMerge(t, "merge", size, stop, streams...)
		}
	}
}

// FuzzGroupMerger builds 1–4 sorted streams from arbitrary bytes — the first byte
// picks the stream count and the batch cap, every following triple an
// entry's stream, sort key and document — and checks the merge against the
// brute-force grouping, the merge at every need against the brute-force
// scan under the stop rule seeded by stop, and the conjunctive merge of the
// streams flattened to one sort key, the seekable ones picked by stop's
// bits, against the brute-force intersection and the textbook leapfrog's
// count.  A triple may repeat a position within its stream, and a stream
// may end long before the others.  The target keeps the name of the merger
// Merge replaced, and so its seeds' names.
func FuzzGroupMerger(f *testing.F) {
	f.Add([]byte{0x31, 0, 5, 4, 1, 5, 4, 0, 2, 1, 1, 2, 1, 2, 1, 3}, uint8(0xFF))
	f.Add([]byte{0x02, 0, 1, 1, 0, 1, 1, 0, 1, 1}, uint8(0xFF))
	f.Add([]byte{0xF3}, uint8(0xFF))
	// Two streams meeting at several positions, repeats in stream 0, and a
	// bound that fires after the first match.
	f.Add([]byte{0x05, 0, 7, 1, 0, 7, 1, 1, 7, 1, 0, 6, 2, 1, 6, 2, 0, 3, 9, 1, 3, 9, 1, 2, 4}, uint8(1<<3|5))
	// Three streams, stream 2 ending at the top key; a bound that can fire
	// before any match.
	f.Add([]byte{0x02, 2, 7, 0, 0, 7, 0, 1, 7, 0, 0, 5, 3, 1, 5, 3, 0, 1, 8, 1, 1, 8}, uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, stop uint8) {
		if len(data) == 0 {
			return
		}
		k, size := 1+int(data[0]&3), 1+int(data[0]>>2)
		streams := make([][]Entry, k)
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			s := int(rest[0]) % k
			streams[s] = append(streams[s], Entry{
				SortKey:   float64(rest[1] % 8),
				Doc:       DocID(rest[2] % 32),
				TermScore: float32(rest[0]),
			})
		}
		for _, s := range streams {
			sort.SliceStable(s, func(i, j int) bool { return Less(s[i], s[j]) })
		}
		checkMerge(t, "fuzz", size, stop, streams...)
	})
}
