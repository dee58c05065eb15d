// Package index implements the paper's family of inverted-list index
// structures and their query and update algorithms:
//
//   - ID              (§4.2.1) — ID-ordered lists, score lookups per result.
//   - Score           (§4.2.2) — score-ordered clustered B+-tree lists,
//     rewritten on every score update.
//   - Score-Threshold (§4.3.1) — stale score-ordered long lists plus short
//     lists for documents whose score moved past a threshold; Algorithm 1
//     for updates, Algorithm 2 for queries.
//   - Chunk           (§4.3.2) — long lists ordered by descending chunk ID,
//     ID-ordered within a chunk; short lists updated when a document climbs
//     two or more chunks.
//   - ID-TermScore    (§5.2)  — the ID baseline extended with per-posting
//     term weights.
//   - Chunk-TermScore (§4.3.3) — the Chunk method extended with per-posting
//     term weights and per-term fancy lists; Algorithm 3 for queries.
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
