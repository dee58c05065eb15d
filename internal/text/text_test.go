package text

import (
	"math"
	"reflect"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	var a Analyzer
	got := a.Tokenize("The Golden-Gate bridge, 1937!")
	want := []string{"the", "golden", "gate", "bridge", "1937"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	var a Analyzer
	if got := a.Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v, want empty", got)
	}
	if got := a.Tokenize("!!! ---"); len(got) != 0 {
		t.Errorf("Tokenize of punctuation = %v, want empty", got)
	}
}

func TestTermFrequenciesAndDistinct(t *testing.T) {
	tokens := []string{"news", "gate", "news", "golden", "gate", "news"}
	tf := TermFrequencies(tokens)
	if tf["news"] != 3 || tf["gate"] != 2 || tf["golden"] != 1 {
		t.Errorf("TermFrequencies = %v", tf)
	}
	distinct := DistinctTerms(tokens)
	want := []string{"gate", "golden", "news"}
	if !reflect.DeepEqual(distinct, want) {
		t.Errorf("DistinctTerms = %v, want %v", distinct, want)
	}
}

func TestDictionaryInternLookup(t *testing.T) {
	d := NewDictionary()
	id1 := d.Intern("news")
	id2 := d.Intern("gate")
	if id1 == id2 {
		t.Error("distinct terms received the same ID")
	}
	if again := d.Intern("news"); again != id1 {
		t.Errorf("re-interning returned %d, want %d", again, id1)
	}
	if got, ok := d.Lookup("gate"); !ok || got != id2 {
		t.Errorf("Lookup(gate) = %d, %v", got, ok)
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Error("Lookup of absent term succeeded")
	}
	if d.Term(id1) != "news" || d.Term(TermID(999)) != "" {
		t.Error("Term lookup wrong")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestDocumentFrequencies(t *testing.T) {
	d := NewDictionary()
	d.AddDocumentTerms([]string{"news", "gate"})
	d.AddDocumentTerms([]string{"news"})
	if d.DocFreq("news") != 2 || d.DocFreq("gate") != 1 || d.DocFreq("absent") != 0 {
		t.Errorf("doc freqs = %d, %d, %d", d.DocFreq("news"), d.DocFreq("gate"), d.DocFreq("absent"))
	}
	d.RemoveDocumentTerms([]string{"news", "absent"})
	if d.DocFreq("news") != 1 {
		t.Errorf("DocFreq after removal = %d, want 1", d.DocFreq("news"))
	}
	d.RemoveDocumentTerms([]string{"news", "news"})
	if d.DocFreq("news") != 0 {
		t.Errorf("DocFreq should not go negative: %d", d.DocFreq("news"))
	}
}

func TestIDF(t *testing.T) {
	stats := CollectionStats{NumDocs: 1000}
	if IDF(stats, 0) != 0 {
		t.Error("IDF of absent term should be 0")
	}
	if IDF(CollectionStats{}, 10) != 0 {
		t.Error("IDF with empty collection should be 0")
	}
	rare := IDF(stats, 1)
	common := IDF(stats, 900)
	if rare <= common {
		t.Errorf("IDF of rare term (%g) should exceed common term (%g)", rare, common)
	}
	if want := math.Log(1 + 1000.0/1.0); math.Abs(rare-want) > 1e-12 {
		t.Errorf("IDF(1) = %g, want %g", rare, want)
	}
}

func TestNormalizedTFAndTFIDF(t *testing.T) {
	if NormalizedTF(0, 100) != 0 || NormalizedTF(5, 0) != 0 {
		t.Error("degenerate NormalizedTF inputs should yield 0")
	}
	w := NormalizedTF(5, 100)
	if math.Abs(float64(w)-0.05) > 1e-6 {
		t.Errorf("NormalizedTF(5,100) = %v, want 0.05", w)
	}
	idf := IDF(CollectionStats{NumDocs: 100}, 10)
	if got := TFIDF(w, idf); math.Abs(got-float64(w)*idf) > 1e-12 {
		t.Errorf("TFIDF = %g", got)
	}
}
