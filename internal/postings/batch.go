package postings

import "sync"

// This file defines the block-at-a-time iteration protocol the read path
// runs on.  Every component — the on-disk long-list decoders, the short-list
// cursors and the merge combinators — implements BatchIterator, so the inner
// query loops move whole blocks of postings between pipeline stages instead
// of one entry per virtual call.

// BatchSize is the number of entries moved between pipeline stages per
// NextBatch call.  It is sized so a batch of Entry values (24 bytes each)
// spans a few cache pages and roughly one on-disk page of encoded postings.
const BatchSize = 256

// BatchIterator yields postings in the list's native order, a block at a
// time.
type BatchIterator interface {
	// NextBatch fills buf with as many entries as are immediately available,
	// up to len(buf), and returns how many were written.  n == 0 means the
	// stream is exhausted; 0 < n <= len(buf) means more entries may remain.
	NextBatch(buf []Entry) (n int, err error)
}

// Closer is implemented by combinators that hold pooled scratch buffers;
// Close returns the buffers to the pool and propagates to wrapped inputs.
// Closing is optional — an unclosed combinator is merely invisible to the
// buffer pool — and a closed combinator must not be used again.
type Closer interface {
	Close()
}

// CloseIterator releases its scratch buffers if it implements Closer.
func CloseIterator(it any) {
	if c, ok := it.(Closer); ok {
		c.Close()
	}
}

// entryBufPool recycles the per-query batch buffers so the steady-state
// query path allocates nothing per query.
var entryBufPool = sync.Pool{
	New: func() any {
		b := make([]Entry, BatchSize)
		return &b
	},
}

func getEntryBuf() *[]Entry  { return entryBufPool.Get().(*[]Entry) }
func putEntryBuf(b *[]Entry) { entryBufPool.Put(b) }

// CollectBatched drains a BatchIterator into a slice; used by tests and list
// rebuilds.
func CollectBatched(src BatchIterator) ([]Entry, error) {
	var out []Entry
	buf := getEntryBuf()
	defer putEntryBuf(buf)
	for {
		n, err := src.NextBatch(*buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, (*buf)[:n]...)
	}
}
