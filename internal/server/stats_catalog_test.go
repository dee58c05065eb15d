package server

import (
	"path/filepath"
	"testing"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/view"
	"svrdb/internal/workload"
)

// TestStatsCatalogGauges: the durability block of /v1/stats shows what the
// catalog costs a commit — the anchor's size, and a dictionary-rewrite count
// that a score update leaves alone and a new document moves.
func TestStatsCatalogGauges(t *testing.T) {
	params := workload.DefaultParams()
	params.NumDocs, params.TermsPerDoc, params.VocabSize = 200, 10, 100
	e, err := core.Open(filepath.Join(t.TempDir(), "docs.svrdb"), core.OpenOptions{
		Specs: map[string]view.Spec{"docs": workload.DocsSpec()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := workload.LoadDocsTable(e.DB(), workload.Generate(params), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTextIndex("docs", workload.DocsTable, "body", core.IndexOptions{Method: core.MethodChunk, SpecName: "docs", MinChunkSize: 8}); err != nil {
		t.Fatal(err)
	}
	gauges := func() (anchor int64, rewrites uint64) {
		d := engineStatsPayload(e)["durability"].(map[string]any)
		return d["catalog_anchor_bytes"].(int64), d["dictionary_rewrites"].(uint64)
	}
	anchor, built := gauges()
	if anchor <= 0 || built != 1 {
		t.Fatalf("after the build: catalog_anchor_bytes = %d, dictionary_rewrites = %d; want > 0 and 1", anchor, built)
	}
	if err := e.ApplyBatch(func() error {
		return tbl.Update(1, map[string]relation.Value{"score": relation.Float(99999)})
	}); err != nil {
		t.Fatal(err)
	}
	if _, got := gauges(); got != built {
		t.Errorf("a score update moved dictionary_rewrites to %d", got)
	}
	if err := e.ApplyBatch(func() error {
		return tbl.Insert(relation.Row{relation.Int(100000), relation.Str("a brand new document"), relation.Float(5)})
	}); err != nil {
		t.Fatal(err)
	}
	if _, got := gauges(); got != built+1 {
		t.Errorf("an insert left dictionary_rewrites at %d, want %d", got, built+1)
	}
}

// TestStatsCheckpointGauges: the durability block shows the no-force log —
// commits leave their pages held and their records pending, and the
// checkpoint that closing writes drains both; the pagefile block's pages and
// free_pages gauges read the same after a reopen.
func TestStatsCheckpointGauges(t *testing.T) {
	params := workload.DefaultParams()
	params.NumDocs, params.TermsPerDoc, params.VocabSize = 200, 10, 100
	path := filepath.Join(t.TempDir(), "docs.svrdb")
	e, err := core.Open(path, core.OpenOptions{
		Specs: map[string]view.Spec{"docs": workload.DocsSpec()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := workload.LoadDocsTable(e.DB(), workload.Generate(params), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyBatch(func() error {
		return tbl.Update(1, map[string]relation.Value{"score": relation.Float(99999)})
	}); err != nil {
		t.Fatal(err)
	}
	gauges := func() (checkpoints, held, pending uint64) {
		d := engineStatsPayload(e)["durability"].(map[string]any)
		return d["checkpoints"].(uint64), d["held_pages"].(uint64), d["wal_pending_bytes"].(uint64)
	}
	if c, held, pending := gauges(); c != 0 || held == 0 || pending == 0 {
		t.Errorf("after a commit: checkpoints = %d, held_pages = %d, wal_pending_bytes = %d; want 0 and both > 0", c, held, pending)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if c, held, pending := gauges(); c != 1 || held != 0 || pending != 0 {
		t.Errorf("after Close: checkpoints = %d, held_pages = %d, wal_pending_bytes = %d; want 1, 0, 0", c, held, pending)
	}

	// The file's size and slack: a reopen rebuilds the free list from what
	// the catalog reaches, so it reports what the closed engine did.
	slack := func(e *core.Engine) (pages, free uint64) {
		p := engineStatsPayload(e)["pagefile"].(map[string]any)
		return p["pages"].(uint64), p["free_pages"].(uint64)
	}
	pages, free := slack(e)
	if file := e.Pool().File(); pages == 0 || pages != file.NumPages() || free != uint64(file.FreePages()) || free >= pages {
		t.Errorf("pages = %d, free_pages = %d; want the file's %d and %d, some pages live", pages, free, file.NumPages(), file.FreePages())
	}
	re, err := core.Open(path, core.OpenOptions{Specs: map[string]view.Spec{"docs": workload.DocsSpec()}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if p, f := slack(re); p != pages || f != free {
		t.Errorf("after a reopen: pages = %d, free_pages = %d; want %d and %d as before Close", p, f, pages, free)
	}
}

// TestStatsPreferredReuses: the pagefile block counts the allocations that
// got the page they asked for, and the rest of the allocation outcomes and
// the reservation gauge; the durability block splits the WAL's bytes by
// entry class.  Score batches copy the index's published tree nodes, and
// with no reader holding an epoch open each copy after the first goes back
// to the page its node held one version earlier, which it had reserved.
func TestStatsPreferredReuses(t *testing.T) {
	params := workload.DefaultParams()
	params.NumDocs, params.TermsPerDoc, params.VocabSize = 200, 10, 100
	e, err := core.Open(filepath.Join(t.TempDir(), "docs.svrdb"), core.OpenOptions{
		Specs: map[string]view.Spec{"docs": workload.DocsSpec()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := workload.LoadDocsTable(e.DB(), workload.Generate(params), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTextIndex("docs", workload.DocsTable, "body", core.IndexOptions{Method: core.MethodChunk, SpecName: "docs", MinChunkSize: 8}); err != nil {
		t.Fatal(err)
	}
	counts := func() map[string]uint64 {
		out := map[string]uint64{}
		payload := engineStatsPayload(e)
		for _, block := range []string{"pagefile", "durability"} {
			for k, v := range payload[block].(map[string]any) {
				if n, ok := v.(uint64); ok {
					out[k] = n
				}
			}
		}
		return out
	}
	c0 := counts()
	for batch := 0; batch < 4; batch++ {
		if err := e.ApplyBatch(func() error {
			return tbl.Update(int64(1+batch%2), map[string]relation.Value{"score": relation.Float(float64(90000 + batch))})
		}); err != nil {
			t.Fatal(err)
		}
	}
	c := counts()
	d := func(k string) uint64 {
		t.Helper()
		v, ok := c[k]
		if !ok {
			t.Fatalf("/v1/stats has no %q", k)
		}
		return v - c0[k]
	}
	t.Logf("preferred %d of %d reuses; misses %d, grows %d, unpreferred %d (%d reserved); %d pages reserved", d("preferred_reuses"), d("reuses"), d("prefer_misses"), d("prefer_grows"), d("unpreferred_allocs"), d("reserved_taken"), c["reserved_pages"])
	if d("preferred_reuses") == 0 || d("preferred_reuses")+d("prefer_misses") > d("reuses") {
		t.Errorf("4 score batches: preferred_reuses +%d, prefer_misses +%d, reuses +%d; want preferred to rise, the two by no more than reuses", d("preferred_reuses"), d("prefer_misses"), d("reuses"))
	}
	if d("reserved_taken") > d("unpreferred_allocs") {
		t.Errorf("reserved_taken +%d exceeds unpreferred_allocs +%d", d("reserved_taken"), d("unpreferred_allocs"))
	}
	if d("prefer_grows") != 0 {
		t.Errorf("prefer_grows +%d: a readerless score batch's copies should find their pages", d("prefer_grows"))
	}
	if c["reserved_pages"] == 0 {
		t.Error("reserved_pages = 0 after copies: each copied node holds its previous page")
	}
	classes := d("wal_bytes_preferred") + d("wal_bytes_elsewhere") + d("wal_bytes_in_place") + d("wal_bytes_past_end")
	if d("wal_bytes_preferred") == 0 || classes == 0 || classes >= d("wal_bytes") {
		t.Errorf("WAL bytes by class sum to %d (preferred %d) of %d; want the copies' share set and the classes below the total, which adds record headers",
			classes, d("wal_bytes_preferred"), d("wal_bytes"))
	}
}
