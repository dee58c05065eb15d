// Package pagefile provides a fixed-size-page storage abstraction that the
// rest of the storage engine is built on.
//
// The paper's implementation stores all index structures in BerkeleyDB, whose
// performance characteristics are dominated by how many disk pages each
// operation touches.  This package reproduces that model: every structure
// above it (B+-trees, blob-stored inverted lists) allocates, reads and writes
// whole pages, and the file keeps precise counters of logical page I/O so
// that experiments can report "pages read" alongside wall-clock time.  An
// optional simulated per-read latency lets benchmarks approximate a
// cold-cache disk even when the backing store is main memory.
//
// Two backends implement the File interface.  NewMem is the in-memory
// simulation the benchmarks run on.  Open(path, opts...) is the durable disk
// backend: a checksummed-header page file with a write-ahead log, where every
// write stages in memory until Commit makes the batch atomic (a WAL record of
// the byte ranges that changed + fsync, in-place writeback, checkpoint) and
// reopening replays any committed WAL record a crash left unapplied.  WithFaults injects deterministic write,
// torn-write, fsync and read failures for crash-point testing.  See the
// "Durability & recovery" section of ARCHITECTURE.md for the on-disk format
// and the recovery procedure.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package pagefile
