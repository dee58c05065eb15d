// Package btree implements a B+-tree keyed by arbitrary byte strings over a
// buffer pool of fixed-size pages.
//
// The paper implements every updatable structure — the Score table, the
// ListScore/ListChunk tables (which this repository folds into the Score
// rows), the short inverted lists and the Score method's clustered long
// list — as BerkeleyDB B+-trees (§5.2).  This
// package is the equivalent substrate: keys and values are opaque byte
// strings, keys compare bytewise (order-preserving composite keys are built
// with package codec), and every node occupies exactly one buffer-pool page
// so that the I/O counters reflect realistic access costs.
//
// Deletion is "lazy": a key is removed from its leaf but leaves are not
// rebalanced when they underflow.  This matches the access patterns in this
// repository (deletes are rare: only document deletion uses them) and keeps
// scans and lookups correct; space from deleted entries is reclaimed when a
// leaf is next split or rewritten.  A leaf that empties completely is the
// exception: it is removed from its parent and its page recycled through
// the pagefile free list, so delete/reinsert churn neither grows the page
// file without bound nor leaves dead leaves for scans to traverse.
//
// A tree has one write path, the sorted batch (UpsertBatch, DeleteBatch),
// and one read path, the View: point lookups (View.Get, Probe) and one range
// reader, the pooled pull Cursor (View.Cursor, then More, Next, Err and
// Close), which reads a copy of one leaf at a time and re-descends from the
// view's frozen root at each leaf's upper bound (leaves carry no sibling
// pointers).  AscendRange, Ascend and AscendPrefix are loops over a Cursor.
//
// Within a batch, a run of writes that replace existing values with ones
// of identical length — every fixed-width table write: Score-table score
// updates, re-keyed rows, deleted-flag flips — is patched
// straight into the pinned leaf page (Frame.Patch) with no node parse or
// reserialize; Patches counts them.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package btree
