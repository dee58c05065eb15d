package index

// This file implements ReleasePages, the storage half of an online index
// drop: every page the method's structures occupy — the Score table, the
// mutable keyed list, the ListScore/ListChunk table, the long-list blobs and
// the fancy lists — is handed back for recycling.  Published pages are
// retired to the epoch manager (a racing reader pinned to the last snapshot
// may still traverse them) and fresh pages recycle immediately; the caller
// then Drains the method, which waits for those readers to leave and moves
// every retired page onto the pagefile free list.  The method must be fenced
// from writers before the call and must not be used afterwards.

// ReleasePages implements Method.
func (b *base) ReleasePages() error {
	if err := b.score.tree.RetireAll(); err != nil {
		return err
	}
	b.retireBlobRefs(b.longRefs, b.fancyRefs)
	if err := b.lists.tree.RetireAll(); err != nil {
		return err
	}
	if b.table != nil {
		if err := b.table.tree.RetireAll(); err != nil {
			return err
		}
	}
	return nil
}
