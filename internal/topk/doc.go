// Package topk implements the bounded result heap used by every query
// algorithm in the paper: a min-heap of the current best k (document, score)
// pairs, plus the bookkeeping the stopping rules need (whether k results
// have been collected, and the smallest score among them).  A repeated offer
// of a document is found by a linear scan of the held entries up to k = 32,
// and through a doc → slot map only above that (the router's merge at large
// k, Figure 8's k = 1000).
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package topk
