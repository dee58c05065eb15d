package bench

import (
	"fmt"
	"math/rand"

	"svrdb/internal/index"
	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/workload"
)

// compressionGateScale is the smallest collection scale at which the 2x
// compression-ratio gate is enforced: the smoke tests run tiny collections
// whose lists are mostly block headers, which would make the gate flaky.
const compressionGateScale = 0.1

// RunCompression measures the posting-block encoding method by method:
// stored bytes against the fixed-width raw footprint they encode, plus
// cold-cache query time and buffer-pool pages per query.  The Score method
// is excluded because its postings live in B+-tree leaves, not long-list
// blobs.
//
// At Scale >= 0.1 the run fails if any method compresses below 2x of the
// fixed-width footprint, so the benchmark doubles as the regression gate CI
// runs.
func RunCompression(opts Options) (*Table, error) {
	opts = opts.normalized()
	corpus := corpusFor(opts)
	queries := workload.GenerateQueries(corpus, queryParams(opts))
	methods := []string{"ID", "Score-Threshold", "Chunk", "ID-TermScore", "Chunk-TermScore"}

	t := &Table{
		Name:    "Compression — posting blocks",
		Caption: fmt.Sprintf("%d queries, k=%d, cold cache; Raw is the fixed-width footprint (8 B ids, 8 B scores, 4 B weights/chunk headers)", opts.NumQueries, opts.K),
		Header:  []string{"Method", "Blocks (MB)", "Raw (MB)", "Ratio", "Query (ms)", "Pages"},
		Notes: []string{
			"Ratio is Raw/Blocks",
			"Pages counts buffer-pool misses per cold query",
		},
	}

	// Cold-cache queries make the page counts meaningful regardless of the
	// caller's flag (a warm pool reads ~0 pages either way).
	coldOpts := opts
	coldOpts.ColdCache = true

	for _, m := range methods {
		withTS := m == "ID-TermScore" || m == "Chunk-TermScore"

		r, err := newRig(m, corpus, opts, index.Config{MinChunkSize: minChunkSize(opts)})
		if err != nil {
			return nil, err
		}
		qs, err := runQueries(r, queries, coldOpts, opts.K, false, withTS)
		if err != nil {
			return nil, err
		}

		st := r.method.Stats()
		ratio := 0.0
		if st.LongListBytes > 0 {
			ratio = float64(st.LongListRawBytes) / float64(st.LongListBytes)
		}
		if opts.Scale >= compressionGateScale && ratio < 2 {
			return nil, fmt.Errorf("bench: %s compression ratio %.2fx below the 2x gate (raw %d B, stored %d B)",
				m, ratio, st.LongListRawBytes, st.LongListBytes)
		}

		t.Rows = append(t.Rows, []string{
			m,
			fmtMB(st.LongListBytes),
			fmtMB(st.LongListRawBytes),
			fmt.Sprintf("%.2f", ratio),
			fmtDur(qs.avgTime),
			fmt.Sprintf("%.1f", qs.avgPages),
		})
	}

	scanPages, seekPages, listPages, err := seekProbe(opts.Seed)
	if err != nil {
		return nil, err
	}
	// The seek probe is also an assertion: SeekDoc exists so that the
	// conjunctive planner can leapfrog selective terms past non-matching
	// super-blocks, which is only real if seeking faults in strictly fewer
	// pages than scanning the same distance.
	if seekPages >= scanPages {
		return nil, fmt.Errorf("bench: SeekDoc read %d pages vs %d for a sequential scan — super-block skips are not saving page reads", seekPages, scanPages)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"seek probe: reaching the tail of a 200k-posting compressed ID list (%d pages) costs %d pages by scanning vs %d by SeekDoc — super-block skips advance past pages without faulting them",
		listPages, scanPages, seekPages))
	return t, nil
}

// seekProbe measures the skip-based seek against a sequential scan on one
// long compressed ID list: buffer-pool pages touched to position just
// before the list's last document.  This is the microbenchmark behind the
// "selective conjunctions seek past blocks without decoding them" claim;
// the per-method tables above use the ordinary scanning query paths.
func seekProbe(seed int64) (scanPages, seekPages, listPages int, err error) {
	pool := buffer.MustNew(pagefile.MustNewMem(pagefile.DefaultPageSize), 512)
	registerPool(pool)
	store := blob.NewStore(pool)

	rng := rand.New(rand.NewSource(seed + 41))
	b := postings.NewBlockIDListBuilder()
	d := postings.DocID(0)
	for i := 0; i < 200000; i++ {
		d += postings.DocID(rng.Intn(6000) + 1)
		if err := b.Add(d); err != nil {
			return 0, 0, 0, err
		}
	}
	data := b.Bytes()
	ref, err := store.Put(data)
	if err != nil {
		return 0, 0, 0, err
	}
	listPages = (len(data) + pagefile.DefaultPageSize - 1) / pagefile.DefaultPageSize
	target := d - 1000

	scanReader := store.NewReader(ref)
	scan, err := postings.NewStreamIDList(scanReader)
	if err != nil {
		return 0, 0, 0, err
	}
	buf := make([]postings.Entry, postings.BatchSize)
	for {
		n, err := scan.NextBatch(buf)
		if err != nil {
			return 0, 0, 0, err
		}
		if n == 0 || buf[n-1].Doc >= target {
			break
		}
	}
	scanPages = scanReader.PagesRead()

	seekReader := store.NewReader(ref)
	seek, err := postings.NewStreamIDList(seekReader)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := seek.SeekDoc(target); err != nil {
		return 0, 0, 0, err
	}
	if n, err := seek.NextBatch(buf); err != nil || n == 0 {
		return 0, 0, 0, fmt.Errorf("bench: seek probe landed empty (n=%d, err=%v)", n, err)
	}
	seekPages = seekReader.PagesRead()
	return scanPages, seekPages, listPages, nil
}
