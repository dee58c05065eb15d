package index

import (
	"svrdb/internal/storage/btree"
	"svrdb/internal/storage/pagefile"
)

// This file implements Pages and ReleasePages, the one list of what an
// index owns: the Score table, the mutable keyed list, and the long-list and
// fancy-list blobs.  An
// online drop hands every page of it back for recycling: published pages
// are retired to the epoch manager (a racing reader pinned to the last
// snapshot may still traverse them) and fresh pages recycle immediately;
// the caller then Drains the method, which waits for those readers to leave
// and moves every retired page onto the pagefile free list.  A durable
// engine opening its file lists it among the pages that stay live.

// trees returns the method's B+-trees.
func (b *base) trees() []*btree.Tree {
	return []*btree.Tree{b.score.tree, b.lists.tree}
}

// Pages implements Method.
func (b *base) Pages(dst []pagefile.PageID) ([]pagefile.PageID, error) {
	for _, t := range b.trees() {
		var err error
		if dst, err = t.AppendPages(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, b.blobPages(b.longRefs, b.fancyRefs)...), nil
}

// ReleasePages implements Method.  The method must be fenced from writers
// before the call and must not be used afterwards.
func (b *base) ReleasePages() error {
	for _, t := range b.trees() {
		if err := t.RetireAll(); err != nil {
			return err
		}
	}
	b.epochs.Retire(b.blobPages(b.longRefs, b.fancyRefs)...)
	return nil
}
