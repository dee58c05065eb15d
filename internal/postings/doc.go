// Package postings defines the posting representations shared by all the
// inverted-list methods in the paper, the compressed on-disk layouts of the
// long (immutable) lists, and the iterator/merge machinery the query
// algorithms are written against.
//
// Five long-list layouts are provided, one per index method family:
//
//   - IDList            — ascending document IDs, d-gaps bitpacked per block
//     (the ID method, §4.2.1).
//   - ScoreList         — (score descending, docID) with the score stored in
//     every posting (the Score-Threshold long list, §4.3.1).
//   - ChunkedList       — postings grouped into chunks ordered by descending
//     chunk ID; within a chunk ascending docIDs, d-gap encoded; the chunk ID
//     is stored once per chunk (the Chunk method, §4.3.2).
//   - IDTermList        — ascending docIDs each carrying a float32 term
//     weight (the ID-TermScore baseline and the fancy lists of §4.3.3).
//   - ChunkedTermList   — the Chunk layout with a float32 term weight per
//     posting (the Chunk-TermScore method, §4.3.3).
//
// Every layout has one wire encoding, the compressed posting-block format
// (block.go): fixed-capacity blocks with delta + bitpacked bodies, grouped
// under super-blocks whose skip headers let a reader seek past whole page
// runs without decoding them.  The stream readers (stream.go) accept only a
// block blob of their own layout, refuse anything else with a
// codec.ErrCorrupt-wrapped error, and expose the seek capability as SeekDoc
// on the ID layouts, which a conjunctive Merge leapfrogs with.  See the
// block.go package-level comment for the byte-level grammar and
// ARCHITECTURE.md "Posting block format" for the design rationale.
//
// Short lists live in B+-trees (package index) but are exposed to the query
// algorithms as the same BatchIterator interface, so that an Overlay makes
// "ShortList(t) ∪ LongList(t)" of Algorithm 2 a single stream, and one Merge
// (merge.go) runs every query over the per-term streams.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package postings
