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
