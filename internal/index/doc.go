// Package index implements the paper's family of inverted-list index
// structures and their query and update algorithms.  The six kinds are three
// method types over one shared base (kinds.go is the registry):
//
//   - idMethod — ID (§4.2.1) and ID-TermScore (§5.2): ID-ordered long lists,
//     the latter with per-posting term weights.  A score update writes the
//     Score table only; queries scan every list end to end (leapfrogging
//     multi-term conjunctions) and look up every candidate's score.
//   - scoreMethod — Score (§4.2.2): score-ordered clustered B+-tree lists,
//     every posting of a document moved on every score update; queries read
//     an exact prefix.
//   - thresholdMethod — the threshold family (§4.3), one Algorithm 1 for
//     updates and one Algorithm 2 for queries over a per-kind list order:
//     Score-Threshold (§4.3.1; list key = stale score, threshold t·s), Chunk
//     (§4.3.2; list key = chunk ID, threshold c+1) and Chunk-TermScore
//     (§4.3.3; the Chunk order with per-posting term weights and per-term
//     fancy lists, Algorithm 3 for combined SVR + term-score queries).
//
// What the kinds share is written once on base: the Score table (the
// paper's materialized Score view, §3.2 — the engine's view layer evaluates
// the spec and stores nothing), one mutable keyed list (B+-tree keyed
// (term, sortKey desc, docID): the ID family's auxiliary list under the
// constant key 0, the Score method's long lists, the threshold family's
// short lists) and, for the threshold family, the ListScore/ListChunk table
// (both tables are one type, docTable); document insert, delete and content
// update (Appendix A; the Score method overrides delete and content update
// to move postings in place), batched application, the offline merge, page
// release, checkpoint state and restore, statistics.
//
// All methods implement the Method interface so the engine, the benchmark
// harness and the correctness tests treat them uniformly.  Long lists are
// written in the compressed posting-block format, and Stats reports both the
// stored and the fixed-width raw footprint so the compression ratio is
// observable per method.  Every method
// guarantees that TopK returns the correct top-k result set with respect to
// the *latest* document scores, no matter how stale its long lists are
// (Theorems 1 and 2 of the paper).
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package index
