// Package topk implements the bounded result heap used by every query
// algorithm in the paper: a min-heap of the current best k (document, score)
// pairs, plus the bookkeeping the stopping rules need (whether k results
// have been collected, and the smallest score among them).  A repeated offer
// of a document is found by a linear scan of the held entries up to k = 32,
// and through a doc → slot map only above that (the router's merge at large
// k, Figure 8's k = 1000).
//
// Heap.Admits is the heap's one admission rule, which Add itself applies: an
// offer is admitted while the heap is not full, or when it beats the weakest
// retained result (a higher score, or an equal score and a smaller document
// ID).  An offer it refuses cannot change the results, so a query may drop
// the candidate before paying for the rest of its resolution — the
// threshold family's resolvers drop it before the heap's duplicate search.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package topk
