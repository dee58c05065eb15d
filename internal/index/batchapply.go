package index

import (
	"errors"
	"fmt"
)

// This file implements the shared machinery behind Method.ApplyUpdates, the
// write-side counterpart of the read path's block-at-a-time protocol.
//
// A batch runs in two phases.  First every update is replayed in order
// through the method's ordinary maintenance logic (UpdateScore,
// InsertDocument, ...), but with the method's updatable structures — the
// Score table, the ListScore/ListChunk table and the short/clustered lists —
// switched into staged mode: reads see the batch's earlier writes through an
// in-memory overlay, and writes collect instead of descending the B+-trees.
// Second, each structure flushes its overlay as sorted grouped writes
// (btree.UpsertBatch / DeleteBatch), so postings destined for the same tree
// leaf share one descent and one leaf rewrite no matter how the updates were
// interleaved.  The resulting index state is identical to applying the batch
// one call at a time.

// stager is a structure that can defer its writes for the duration of one
// batch.  beginBatch enters staged mode; flushBatch applies the collected
// writes with grouped B+-tree operations and leaves staged mode.
type stager interface {
	beginBatch()
	flushBatch() error
}

// applyOne dispatches one update to the method's maintenance entry points.
func applyOne(m Method, u Update) error {
	switch u.Op {
	case ScoreOp:
		return m.UpdateScore(u.Doc, u.Score)
	case InsertOp:
		return m.InsertDocument(u.Doc, u.Tokens, u.Score)
	case DeleteOp:
		return m.DeleteDocument(u.Doc)
	case ContentOp:
		return m.UpdateContent(u.Doc, u.OldTokens, u.NewTokens)
	default:
		return fmt.Errorf("index: unknown update kind %d", u.Op)
	}
}

// ApplyUpdates implements Method: the batch replays through the kind's
// ordinary maintenance paths with the Score table, the keyed list and the
// ListScore/ListChunk table staged, so its tree writes group by leaf.  Even
// the Score method, whose every update rewrites long-list postings, thereby
// groups a batch's per-term deletes and reinserts into per-leaf writes.  A
// failing update does not abort the batch: later updates still apply,
// mirroring the engine's eager maintenance (which records an error per
// failing event and keeps going), and the errors are joined.
func (b *base) ApplyUpdates(batch []Update) error {
	if len(batch) == 0 {
		return nil
	}
	tables := []stager{b.score, b.lists}
	if b.table != nil {
		tables = append(tables, b.table)
	}
	// Suppress the per-update snapshot publications; the batch publishes
	// once after the flush, so concurrent queries see either the whole
	// batch or none of it.
	b.suppress = true
	for _, t := range tables {
		t.beginBatch()
	}
	var errs []error
	for i := range batch {
		if err := applyOne(b.self, batch[i]); err != nil {
			errs = append(errs, err)
		}
	}
	for _, t := range tables {
		if err := t.flushBatch(); err != nil {
			errs = append(errs, err)
		}
	}
	b.suppress = false
	b.publish()
	return errors.Join(errs...)
}
