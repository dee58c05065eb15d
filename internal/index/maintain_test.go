package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"svrdb/internal/codec"
)

// postingTerms lists the terms under which the method's keyed list holds a
// posting of doc, staged writes flushed.
func postingTerms(t *testing.T, m Method, doc DocID) []string {
	t.Helper()
	l := baseOf(m).lists
	if err := l.flushBatch(); err != nil {
		t.Fatal(err)
	}
	var terms []string
	c := l.tree.View().Cursor(nil, nil)
	defer c.Close()
	for c.More() {
		k, _ := c.Next()
		term, n, err := codec.OrderedString(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, d, err := decodeKeyedListSuffix(k[n:]); err != nil {
			t.Fatal(err)
		} else if d == doc {
			terms = append(terms, term)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return terms
}

// TestDeleteLeavesNoShortListPosting: a deleted document keeps no short-list
// posting, on every kind with short lists, also under a term a content edit
// took from it — where the edit left a REM posting that the document's
// current content no longer names.  It runs for a built document and for an
// inserted one; the delete carries the current content, as the engine's
// does.
func TestDeleteLeavesNoShortListPosting(t *testing.T) {
	for _, k := range Kinds() {
		if k.clustered {
			// The Score method's keyed list is its long list, and an edit
			// deletes its postings in place: it writes no REM posting.
			continue
		}
		for _, tc := range []struct {
			name      string
			insert    bool
			doc       DocID
			old, edit string
			lost      string
		}{
			{name: "built", doc: 1, old: "golden gate bridge news archive", edit: "golden gate bridge news", lost: "archive"},
			{name: "inserted", insert: true, doc: 50, old: "golden ferry news", edit: "golden news", lost: "ferry"},
		} {
			t.Run(k.Name+"/"+tc.name, func(t *testing.T) {
				corpus := smallCorpus()
				m := buildMethod(t, k.Name, allConstructors()[k.Name], corpus)
				if tc.insert {
					corpus.add(tc.doc, 700, tc.old)
					if err := insertDocument(m, tc.doc, strings.Fields(tc.old), 700); err != nil {
						t.Fatal(err)
					}
				}
				old, edit := strings.Fields(tc.old), strings.Fields(tc.edit)
				corpus.docs[tc.doc] = edit
				if err := m.ApplyUpdates([]Update{{Op: ContentOp, Doc: tc.doc, OldTokens: old, NewTokens: edit}}); err != nil {
					t.Fatal(err)
				}
				if terms := postingTerms(t, m, tc.doc); !containsTerm(terms, tc.lost) {
					t.Fatalf("after the edit, postings of %d under %v, want one under the lost term %q", tc.doc, terms, tc.lost)
				}
				delete(corpus.docs, tc.doc)
				if err := m.ApplyUpdates([]Update{{Op: DeleteOp, Doc: tc.doc, OldTokens: edit}}); err != nil {
					t.Fatal(err)
				}
				if terms := postingTerms(t, m, tc.doc); len(terms) > 0 {
					t.Errorf("deleted document %d keeps postings under %v", tc.doc, terms)
				}
			})
		}
	}
}

func containsTerm(terms []string, term string) bool {
	for _, t := range terms {
		if t == term {
			return true
		}
	}
	return false
}

// TestDictionaryBytesDoNotGrowWithInserts: the dictionary half of a method's
// state, which a durable commit rewrites whenever an insert bumps DictGen,
// holds nothing per document, so once every term of a vocabulary is known
// its encoding stays the same size however many documents are inserted.
// Each document holds every vocabulary term, so after the first batch each
// document frequency is at least 128 and, up to the last batch, below
// 32,768: gob writes every one of them in the same three bytes.
func TestDictionaryBytesDoNotGrowWithInserts(t *testing.T) {
	const (
		vocab    = 40
		perBatch = 128
		batches  = 8
	)
	words := make([]string, vocab)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	for _, k := range Kinds() {
		t.Run(k.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			corpus := smallCorpus()
			m := buildMethod(t, k.Name, allConstructors()[k.Name], corpus)
			doc := DocID(1000)
			var first int
			for n := 1; n <= batches; n++ {
				var batch []Update
				for i := 0; i < perBatch; i++ {
					tokens := append([]string(nil), words...)
					rng.Shuffle(len(tokens), func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })
					score := float64(rng.Intn(10000))
					corpus.add(doc, score, strings.Join(tokens, " "))
					batch = append(batch, Update{Op: InsertOp, Doc: doc, Tokens: tokens, Score: score})
					doc++
				}
				if err := m.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(m.Dictionary()); err != nil {
					t.Fatal(err)
				}
				if n == 1 {
					first = buf.Len()
				} else if buf.Len() != first {
					t.Fatalf("dictionary after insert batch %d is %d bytes, after batch 1 %d: it grows with the inserts", n, buf.Len(), first)
				}
			}
		})
	}
}
