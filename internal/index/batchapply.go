package index

import (
	"errors"
	"fmt"
)

// This file implements Method.ApplyUpdates, the one incremental write path,
// the write-side counterpart of the read path's block-at-a-time protocol.
//
// A batch runs in two phases.  First every update is replayed in order
// through the kind's per-op handler (applyScore, applyInsert, ...).  The
// handlers never descend the B+-trees to write: the method's updatable
// structures — the Score table and the short/clustered lists — collect
// every write in an in-memory overlay that their reads consult first, so
// each op sees the batch's earlier ones.
// Second, each structure flushes its overlay as sorted grouped writes
// (btree.UpsertBatch / DeleteBatch), so postings destined for the same tree
// leaf share one descent and one leaf rewrite no matter how the updates were
// interleaved, and the method publishes once.  A one-op batch is the
// one-at-a-time update.

// applyOne dispatches one update to the kind's handler for its op.
func applyOne(m kindMethod, u Update) error {
	switch u.Op {
	case ScoreOp:
		return m.applyScore(u.Doc, u.Score)
	case InsertOp:
		return m.applyInsert(u.Doc, u.Tokens, u.Score)
	case DeleteOp:
		return m.applyDelete(u.Doc, u.OldTokens)
	case ContentOp:
		return m.applyContent(u.Doc, u.OldTokens, u.NewTokens)
	default:
		return fmt.Errorf("index: unknown update kind %d", u.Op)
	}
}

// ApplyUpdates implements Method: the batch replays through the kind's
// handlers into the overlays, which then flush grouped by leaf.  Even the
// Score method, whose every update rewrites long-list postings, thereby
// groups a batch's per-term deletes and reinserts into per-leaf writes.  A
// failing update does not abort the batch: later updates still apply and the
// errors are joined.  A batch that wrote nothing (every op a no-op or a
// failure) does not publish: a publication seals the trees, so the next
// write would pay a copy-on-write clone for nothing.
func (b *base) ApplyUpdates(batch []Update) error {
	var errs []error
	for i := range batch {
		if err := applyOne(b.self, batch[i]); err != nil {
			errs = append(errs, err)
		}
	}
	if !b.score.dirty() && !b.lists.dirty() {
		return errors.Join(errs...)
	}
	// Concurrent queries see either the whole batch or none of it: they read
	// the last publication until the flushed trees are published below.
	errs = append(errs, b.score.flushBatch(), b.lists.flushBatch())
	b.publish()
	return errors.Join(errs...)
}
