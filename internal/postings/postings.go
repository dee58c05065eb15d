package postings

import "errors"

// DocID identifies a document (the primary key of the indexed relation).
type DocID int64

// Op marks a short-list posting as an addition or removal of a term from a
// document, as required for incremental content updates (Appendix A.1).
type Op uint8

const (
	// OpAdd is a normal posting: the document contains the term.
	OpAdd Op = iota
	// OpRem records that the term was removed from the document by a content
	// update; it cancels the matching long-list posting.
	OpRem
)

// Entry is one posting as seen by the query algorithms, independent of which
// physical layout produced it.
type Entry struct {
	Doc DocID
	// SortKey is the value the containing list is ordered by, descending:
	// the (possibly stale) list score for score-ordered lists, or the chunk
	// ID for chunk-ordered lists.  ID-ordered lists use 0.
	SortKey float64
	// TermScore is the stored normalized term weight for TermScore layouts.
	TermScore float32
	// Op distinguishes ADD from REM short-list postings.
	Op Op
}

// ErrOrder is returned by Writer.Add when a posting is not in the list
// order of the writer's layout.
var ErrOrder = errors.New("postings: input out of order")

// --- slice iterator ----------------------------------------------------------

// SliceIterator iterates over an in-memory slice of entries (used for short
// lists, which are small enough to materialize per query).
type SliceIterator struct {
	entries []Entry
	pos     int
}

// NewSliceIterator returns an iterator over entries (not copied).
func NewSliceIterator(entries []Entry) *SliceIterator {
	return &SliceIterator{entries: entries}
}

// Len reports how many entries remain to be consumed.
func (it *SliceIterator) Len() int { return len(it.entries) - it.pos }

// NextBatch implements BatchIterator by bulk-copying from the backing slice.
func (it *SliceIterator) NextBatch(buf []Entry) (int, error) {
	n := copy(buf, it.entries[it.pos:])
	it.pos += n
	return n, nil
}
