// Package blob implements an append-only store for large immutable byte
// objects on top of a buffer pool.
//
// The paper stores the long inverted lists "as binary objects in the
// database since they are never updated; they were read in a page at a time
// during query processing" (§5.2).  This package is that facility: a blob is
// written once and read back through a streaming Reader that fetches one
// page at a time, so query algorithms that terminate early (Score-Threshold,
// Chunk, Chunk-TermScore) touch only a prefix of the blob's pages and the
// buffer-pool statistics show exactly how many.
//
// Most lists are far smaller than a page, so a Packer writes one build's
// blobs back to back: a blob that fits in a page never straddles a page
// boundary (Ref.Offset is where it starts in its page), and a longer blob
// starts its own run of consecutive pages at offset 0.  A Reader stays
// within its blob's Length, so it never returns a neighbour's bytes.  The
// pages one packer fills hold only its blobs, so they are freed together.
// Store.Put is the one-blob case.
// Reader.Skip advances the position without faulting the pages in between,
// which is what lets the compressed posting blocks (package postings) seek
// past whole super-blocks without paying their I/O.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package blob
