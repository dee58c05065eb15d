package index

import "fmt"

// Kind is one entry of the method registry, the single place a method kind
// is mapped to its implementation.  Three method types cover the six kinds:
// idMethod (ID, ID-TermScore), scoreMethod (Score) and thresholdMethod
// (Score-Threshold, Chunk, Chunk-TermScore — one Algorithm 1 and one
// Algorithm 2 over a per-kind listOrder).
type Kind struct {
	// ID is the lower-case spelling configuration and the HTTP API use
	// (core.MethodKind).
	ID string
	// Name is the paper's name for the method: what Method.Name() returns
	// and MethodAnchor.Kind persists.
	Name string

	// listTable: the kind keeps a ListScore/ListChunk table beside its
	// short lists (the threshold family).
	listTable bool
	// clustered: the keyed list holds the long lists themselves, updated in
	// place (Score), so there is nothing to merge and no short list to
	// report.
	clustered bool
	// attach wraps a constructed or restored base in the kind's method
	// type.
	attach func(*base) kindMethod
}

var kinds = []Kind{
	{ID: "id", Name: "ID", attach: func(b *base) kindMethod { return newIDMethod(b, false) }},
	{ID: "score", Name: "Score", clustered: true, attach: newScoreMethod},
	{ID: "score-threshold", Name: "Score-Threshold", listTable: true,
		attach: func(b *base) kindMethod { return newThresholdMethod(b, scoreOrder(b)) }},
	{ID: "chunk", Name: "Chunk", listTable: true,
		attach: func(b *base) kindMethod { return newThresholdMethod(b, chunkOrder(b, false)) }},
	{ID: "id-termscore", Name: "ID-TermScore", attach: func(b *base) kindMethod { return newIDMethod(b, true) }},
	{ID: "chunk-termscore", Name: "Chunk-TermScore", listTable: true,
		attach: func(b *base) kindMethod { return newThresholdMethod(b, chunkOrder(b, true)) }},
}

// Kinds lists every method kind in the order the paper's tables report
// them.
func Kinds() []Kind { return append([]Kind(nil), kinds...) }

// lookupKind resolves either spelling of a kind: both are fixed from
// outside (the ID by configuration and the HTTP API, the Name by persisted
// catalogs and the paper's tables), so the registry answers to both.
func lookupKind(kind string) (*Kind, error) {
	for i := range kinds {
		if kinds[i].ID == kind || kinds[i].Name == kind {
			return &kinds[i], nil
		}
	}
	return nil, fmt.Errorf("index: unknown method kind %q", kind)
}

// New creates an empty index of the given kind (Kind.ID or Kind.Name).
func New(kind string, cfg Config) (Method, error) {
	k, err := lookupKind(kind)
	if err != nil {
		return nil, err
	}
	b, err := newBase(k, cfg)
	if err != nil {
		return nil, err
	}
	return b.start(k.attach(b)), nil
}
