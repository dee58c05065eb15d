package workload

import (
	"strings"

	"svrdb/internal/relation"
	"svrdb/internal/view"
)

// DocsTable is the relation LoadDocsTable fills: "Docs"(id, body, score),
// the synthetic corpus as a table whose SVR score is its own score column,
// so the update trace of GenerateUpdates maps 1:1 onto structured updates.
const DocsTable = "Docs"

// DocsSpec scores a Docs row by its score column.
func DocsSpec() view.Spec {
	return view.Spec{Components: []view.Component{view.OwnColumn(DocsTable, "score")}}
}

// LoadDocsTable creates the Docs table in db and inserts the corpus's
// documents that keep selects (nil keeps everything).
func LoadDocsTable(db *relation.DB, c *Corpus, keep func(doc int64) bool) (*relation.Table, error) {
	tbl, err := db.CreateTable(relation.Schema{
		Name: DocsTable,
		Columns: []relation.Column{
			{Name: "id", Kind: relation.KindInt64},
			{Name: "body", Kind: relation.KindString},
			{Name: "score", Kind: relation.KindFloat64},
		},
	})
	if err != nil {
		return nil, err
	}
	err = c.ForEach(func(doc DocID, tokens []string) error {
		if keep != nil && !keep(int64(doc)) {
			return nil
		}
		return tbl.Insert(relation.Row{
			relation.Int(int64(doc)),
			relation.Str(strings.Join(tokens, " ")),
			relation.Float(c.Score(doc)),
		})
	})
	return tbl, err
}

// ApplyScoreUpdates writes each update's new score into its Docs row.  Run it
// inside Engine.ApplyBatch to make the updates one batch.
func ApplyScoreUpdates(tbl *relation.Table, updates []ScoreUpdate) error {
	for _, u := range updates {
		if err := tbl.Update(int64(u.Doc), map[string]relation.Value{"score": relation.Float(u.NewScore)}); err != nil {
			return err
		}
	}
	return nil
}
