// Package pagefile provides a fixed-size-page storage abstraction that the
// rest of the storage engine is built on.
//
// The paper's implementation stores all index structures in BerkeleyDB, whose
// performance characteristics are dominated by how many disk pages each
// operation touches.  This package reproduces that model: every structure
// above it (B+-trees, blob-stored inverted lists) allocates, reads and writes
// whole pages, and the file keeps precise counters of logical page I/O so
// that experiments can report "pages read" alongside wall-clock time.
//
// Two backends implement the File interface.  NewMem is the in-memory
// simulation the benchmarks run on.  Open(path, opts...) is the durable disk
// backend: a checksummed-header page file with a write-ahead log, where every
// write stages in memory until Commit makes the batch atomic with one WAL
// append of the byte ranges that changed and one fsync.  The data file is
// no-force: committed pages are held in memory until a checkpoint — when the
// held pages or the WAL reach 4 MiB, and at Close — writes each of them back
// once and truncates the WAL, and reopening replays the chain of records a
// crash left in the WAL.  Neither backend persists its free list: a freed
// page is pushed onto a stack in memory and nothing is logged, and a
// reopened file frees what its caller's roots do not reach (File.Reclaim).
// WithFaults injects deterministic write, torn-write, fsync and read
// failures for crash-point testing.  See the "Durability & recovery" section
// of ARCHITECTURE.md for the on-disk format and the recovery procedure.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package pagefile
