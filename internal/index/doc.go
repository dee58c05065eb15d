// Package index implements the paper's family of inverted-list index
// structures and their query and update algorithms.  The six kinds are one
// shared base and two method types over it (kinds.go is the registry):
//
//   - base itself — ID (§4.2.1) and ID-TermScore (§5.2): ID-ordered long
//     lists, the latter with per-posting term weights.  A score update writes
//     the Score table only; queries scan every list end to end (a
//     conjunction leapfrogs the lists of its terms with no short-list
//     postings) and look up every candidate's score.
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
// Every query runs through one TopK, on base: it validates the query (its
// rejections wrap ErrInvalidQuery), pins the published snapshot, and asks
// the kind's plan for the streams, the stopping rule and the candidate
// resolver — the only parts of the paper's query algorithms that vary per
// kind — which one scan loop (runRanked, the package's one merge loop)
// runs.  Algorithm 3 is two runs of that loop: a fancy-list scan that seeds
// the heap and the remainList, then the chunk scan.
//
// What the kinds share is written once on base: the Score table (the
// paper's materialized Score view, §3.2 — the engine's view layer evaluates
// the spec and stores nothing; in the threshold family each row also
// records the document's list key, the paper's ListScore/ListChunk table
// folded into one row per document), one mutable keyed list (B+-tree keyed
// (term, sortKey desc, docID): the ID family's auxiliary list under the
// constant key 0, the Score method's long lists, the threshold family's
// short lists); the one incremental write, ApplyUpdates, and the per-op
// handlers it dispatches to — document insert, delete and content update
// (Appendix A; the Score method overrides delete and content update to move
// postings in place) — which write into the structures' overlays for the
// batch to flush and publish once; the offline merge, page release,
// checkpoint state and restore, statistics.
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
