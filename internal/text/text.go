package text

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Analyzer turns raw text into index terms: it splits on non-alphanumeric
// runes and lowercases each token.  It has no settings, because the catalog
// does not record how a file was tokenized: every build, reopen and
// maintenance write must tokenize alike.  The zero value is the analyzer.
type Analyzer struct{}

// Tokenize splits text into terms.
func (*Analyzer) Tokenize(text string) []string {
	var tokens []string
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	for _, f := range fields {
		tokens = append(tokens, strings.ToLower(f))
	}
	return tokens
}

// TermFrequencies counts occurrences of each distinct term in tokens.
func TermFrequencies(tokens []string) map[string]int {
	tf := make(map[string]int, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	return tf
}

// DistinctTerms returns the sorted distinct terms of a token stream.
func DistinctTerms(tokens []string) []string {
	set := TermFrequencies(tokens)
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TermID is a compact identifier assigned to a term by a Dictionary.
type TermID uint32

// Dictionary maps terms to dense TermIDs and tracks document frequencies.
// It is safe for concurrent use.
type Dictionary struct {
	mu      sync.RWMutex
	ids     map[string]TermID
	terms   []string
	docFreq []int64
	// gen counts document-frequency mutations, letting snapshot publishers
	// skip the O(vocabulary) frequency copy when nothing changed (e.g. a
	// score-only batch).
	gen uint64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: map[string]TermID{}}
}

// Intern returns the TermID for term, assigning a new one if needed.
func (d *Dictionary) Intern(term string) TermID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[term]; ok {
		return id
	}
	id := TermID(len(d.terms))
	d.ids[term] = id
	d.terms = append(d.terms, term)
	d.docFreq = append(d.docFreq, 0)
	return id
}

// Lookup returns the TermID for term if it has been interned.
func (d *Dictionary) Lookup(term string) (TermID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the string for a TermID.
func (d *Dictionary) Term(id TermID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.terms) {
		return ""
	}
	return d.terms[id]
}

// Len reports the number of interned terms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// AddDocumentTerms increments the document frequency of each distinct term.
func (d *Dictionary) AddDocumentTerms(distinct []string) {
	for _, t := range distinct {
		id := d.Intern(t)
		d.mu.Lock()
		d.docFreq[id]++
		d.gen++
		d.mu.Unlock()
	}
}

// RemoveDocumentTerms decrements the document frequency of each distinct
// term (used when a document is deleted or its content changes).
func (d *Dictionary) RemoveDocumentTerms(distinct []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range distinct {
		if id, ok := d.ids[t]; ok && d.docFreq[id] > 0 {
			d.docFreq[id]--
			d.gen++
		}
	}
}

// Gen returns the document-frequency mutation counter; equal values mean the
// frequency vector has not changed between observations.
func (d *Dictionary) Gen() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// DocFreqSnapshot returns an independent copy of the per-term document
// frequencies, indexed by TermID, for a frozen IDF view.
func (d *Dictionary) DocFreqSnapshot() []int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]int64(nil), d.docFreq...)
}

// DocFreq reports how many documents contain the term.
func (d *Dictionary) DocFreq(term string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.ids[term]; ok {
		return d.docFreq[id]
	}
	return 0
}

// DictionaryState is the serializable snapshot of a Dictionary, captured at
// a checkpoint and restored on open.  Terms are listed in TermID order; the
// term→ID map is rebuilt from it.
type DictionaryState struct {
	Terms   []string
	DocFreq []int64
}

// State snapshots the dictionary.
func (d *Dictionary) State() DictionaryState {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DictionaryState{
		Terms:   append([]string(nil), d.terms...),
		DocFreq: append([]int64(nil), d.docFreq...),
	}
}

// RestoreDictionary rebuilds a dictionary from a snapshot.
func RestoreDictionary(st DictionaryState) *Dictionary {
	d := &Dictionary{
		ids:     make(map[string]TermID, len(st.Terms)),
		terms:   append([]string(nil), st.Terms...),
		docFreq: append([]int64(nil), st.DocFreq...),
	}
	for i, t := range d.terms {
		d.ids[t] = TermID(i)
	}
	for len(d.docFreq) < len(d.terms) {
		d.docFreq = append(d.docFreq, 0)
	}
	return d
}

// CollectionStats carries the collection-level counts needed for IDF.
type CollectionStats struct {
	NumDocs int64
}

// IDF returns the inverse document frequency of a term:
// log(1 + N/df).  Terms absent from the collection get IDF 0 so that they
// contribute nothing to combined scores.
func IDF(stats CollectionStats, docFreq int64) float64 {
	if docFreq <= 0 || stats.NumDocs <= 0 {
		return 0
	}
	return math.Log(1 + float64(stats.NumDocs)/float64(docFreq))
}

// NormalizedTF returns the length-normalized term frequency used as the
// per-posting term weight: tf / docLen.  A zero document length yields 0.
func NormalizedTF(tf, docLen int) float32 {
	if docLen <= 0 || tf <= 0 {
		return 0
	}
	return float32(float64(tf) / float64(docLen))
}

// TFIDF combines a stored normalized TF weight with a collection IDF.
func TFIDF(normTF float32, idf float64) float64 {
	return float64(normTF) * idf
}
