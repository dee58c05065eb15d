package index

import (
	"fmt"
	"math"
	"slices"

	"svrdb/internal/postings"
)

// thresholdMethod implements the paper's threshold family (§4.3): the
// Score-Threshold method of §4.3.1, the Chunk method of §4.3.2 and its
// Chunk-TermScore extension of §4.3.3.
//
// Each term has a long inverted list frozen at build time in descending
// list-key order and a short inverted list holding fresh postings for
// documents whose score rose past thresholdValueOf(listKey).  Every
// document's Score-table row records its current list key (docRow.key) —
// the relation the paper keeps in its ListScore/ListChunk table — and
// whether its postings sit in the short lists (docRow.short).  Updates are
// processed with Algorithm 1, queries with Algorithm 2 (Algorithm 3 when
// term scores are combined in); the query keeps scanning past the first k
// results until the threshold bound guarantees no unseen document can beat
// them, which is what makes the answer exact under the latest scores
// (Theorems 1 and 2).  The paper states both algorithms once, generically
// over thresholdValueOf; what a list key is and how far a score may drift
// from it is the kind's listOrder.
type thresholdMethod struct {
	*base
	order listOrder
}

// listOrder is what distinguishes the members of the threshold family: how
// the long lists are ordered and encoded, and how far a score may drift
// above a document's list key before its postings are rewritten.
type listOrder struct {
	// keyOf maps a score to its list key; it becomes base.keyOf, which the
	// maintenance paths shared with the other kinds file postings under.
	keyOf func(score float64) float64
	// thresholdValueOf is the paper's function of the same name: a
	// document's short-list postings are rewritten only when the key of its
	// new score exceeds thresholdValueOf(listKey).
	thresholdValueOf func(listKey float64) float64
	// stop is Algorithm 2's stopping rule (lines 9-11) at a scan position
	// of sort key sortKey: the order's bound on the current score of every
	// document whose postings have not been reached, held against the heap
	// by queryCtx.holdsAbove.
	stop func(ctx *queryCtx, sortKey float64) bool
	// prepare derives the order's build-time directory (score directory,
	// chunk boundaries) from the corpus being built, before the Score table
	// is loaded under the keys it defines.
	prepare func(bc *builtCorpus)
	// resolve is lines 12-21 of Algorithm 2: decide which copy of the
	// candidate is authoritative and fetch its latest score, both from the
	// candidate's Score row (see resolveListed).  How the row is read is per
	// list order, by measurement: candidates of a score-ordered list arrive
	// in no document order, so full descents beat the leaf-locality probes a
	// chunk's ascending documents reward.
	resolve resolveFunc
}

func newThresholdMethod(b *base, order listOrder) kindMethod {
	b.keyOf = order.keyOf
	return &thresholdMethod{base: b, order: order}
}

// scoreOrder is the Score-Threshold order of §4.3.1: the list key is the
// (stale) score, stored in every long-list posting, and
// thresholdValueOf(score) = t·score with t ≥ 1.
func scoreOrder(b *base) listOrder {
	threshold := func(listScore float64) float64 { return b.cfg.ThresholdRatio * listScore }
	return listOrder{
		keyOf:            func(score float64) float64 { return score },
		thresholdValueOf: threshold,
		// Algorithm 1 leaves a score equal to t·listScore unrewritten, so an
		// unseen document may attain the bound.
		stop:    func(ctx *queryCtx, listScore float64) bool { return ctx.holdsAbove(threshold(listScore), true) },
		prepare: func(bc *builtCorpus) { b.scoreDir = postings.BuildScoreDir(bc.allScores()) },
		resolve: func(ctx *queryCtx, g *postings.Group) (float64, bool, error) {
			row, ok, err := ctx.score.Descend(g.Doc)
			return resolveListed(ctx, g, row, ok, err)
		},
	}
}

// chunkOrder is the Chunk order of §4.3.2, the best-performing structure in
// the paper's evaluation.  At build time the documents are partitioned into
// chunks by score (boundaries follow the score distribution with ratio
// ChunkRatio and a minimum chunk size); the list key is the chunk ID.  Long
// lists store postings grouped by descending chunk ID, in ascending
// document-ID order within a chunk; the chunk ID is stored once per chunk
// and no score at all, so the lists are essentially as small as the ID
// method's (Table 1).  thresholdValueOf(c) = c + 1: postings are rewritten
// only when a score climbs at least two chunks above its list chunk.  The
// paper's queries therefore continue one chunk past the point where k
// results were found, bounding an unseen document at chunk c by the upper
// bound of chunk c+1; this order bounds it by the key ceilings instead (see
// keyCeilings), which never exceed that bound.  In the Chunk-TermScore
// layout every posting also carries the document's normalized term weight
// (§4.3.3).
func chunkOrder(b *base) listOrder {
	if b.chunks == nil {
		// Not built yet: one chunk, as a build over no documents leaves.
		b.chunks = buildChunker(nil, b.cfg.ChunkRatio, b.cfg.MinChunkSize)
	}
	if b.ceil == nil {
		b.ceil = newKeyCeilings(b.chunks.NumChunks())
	}
	return listOrder{
		keyOf:            func(score float64) float64 { return float64(b.chunks.ChunkOf(score)) },
		thresholdValueOf: func(cid float64) float64 { return float64(thresholdChunk(int32(cid))) },
		// A document not reached when the scan is at chunk cid has a list
		// chunk of at most cid, so its current score is at most the ceiling
		// of the keys up to cid, which it may attain.
		stop: func(ctx *queryCtx, cid float64) bool {
			return ctx.holdsAbove(ctx.snap.ceiling(cid), true)
		},
		prepare: func(bc *builtCorpus) {
			b.chunks = buildChunker(bc.allScores(), b.cfg.ChunkRatio, b.cfg.MinChunkSize)
			b.ceil = newKeyCeilings(b.chunks.NumChunks())
			for _, score := range bc.docScores {
				b.ceil.raise(b.keyOf(score), score)
			}
		},
		resolve: resolveChunk,
	}
}

// keyCeilings is the Chunk orders' score ceiling per list key: entry c-1 is
// an upper bound on the current score of every live document whose list key
// is chunk c (-Inf while no document has been filed under it).  A build
// derives it from the built scores, exact per chunk.  Afterwards only a
// write that files a document under a key at a score raises it: Algorithm 1
// at the key it leaves the document under (its list key when the update
// does not cross, the new key when it does) and an insert at the key of its
// score.  A delete, a content edit and a score decrease leave it
// stale-high, which is still a bound.  Since Algorithm 1 moves a document at
// key c once its score reaches the upper bound of chunk c+1, every ceiling
// stays below that bound: the stopping rules that read the ceilings stop no
// later than the paper's.  Nothing is persisted: Restore re-derives the
// ceilings from the current scores (deriveCeilings).  The other kinds keep
// none (nil), and raise is a no-op on them.
type keyCeilings []float64

// newKeyCeilings returns the ceilings of n chunks under which no document
// is filed yet.
func newKeyCeilings(n int) keyCeilings {
	c := make(keyCeilings, n)
	for i := range c {
		c[i] = math.Inf(-1)
	}
	return c
}

// slot is the entry of a list key.  A key outside the chunks (a hostile Score
// row or posting) clamps to the nearest chunk, and does so for the writer
// and the reader alike, so a ceiling still bounds every score filed under
// the keys it covers.
func (c keyCeilings) slot(key float64) int {
	return min(max(int(key)-1, 0), len(c)-1)
}

// raise lifts the ceiling of key to score.
func (c keyCeilings) raise(key, score float64) {
	if len(c) == 0 {
		return
	}
	if i := c.slot(key); score > c[i] {
		c[i] = score
	}
}

// upTo returns the running maximum: entry c-1 bounds every live document
// whose list key is at most c.  It is what a snapshot publishes.
func (c keyCeilings) upTo() keyCeilings {
	out := slices.Clone(c)
	for i := 1; i < len(out); i++ {
		out[i] = max(out[i], out[i-1])
	}
	return out
}

// deriveCeilings re-derives the key ceilings from the current scores, for
// Restore: one walk of the Score table raises each live document's list key
// to its score.
func (b *base) deriveCeilings() error {
	b.ceil = newKeyCeilings(b.chunks.NumChunks())
	return b.score.ForEach(func(_ DocID, r docRow) bool {
		if !r.deleted {
			b.ceil.raise(r.key, r.val)
		}
		return true
	})
}

// resolveListed resolves a candidate from its Score row (the result of a
// lookup of g.Doc): a candidate counts iff the document is live and the
// candidate's list position is the list key its row records.  That is
// exact: every copy of a document that is not at its row's key is stale,
// and no stale copy sits at the key, because Algorithm 1 only ever moves a
// document to a strictly higher key — the long-list copy stays below every
// key the document moves to, and each short-list copy it leaves is deleted.
// A candidate whose offer (ctx.offer of the score) the heap would not admit
// is dropped here, before the heap's duplicate search.
func resolveListed(ctx *queryCtx, g *postings.Group, row docRow, ok bool, err error) (float64, bool, error) {
	if err != nil || !ok || row.deleted || g.SortKey != row.key {
		return 0, false, err
	}
	offer := ctx.offer(g, row.val)
	return offer, ctx.heap.Admits(int64(g.Doc), offer), nil
}

// resolveChunk is the Chunk orders' resolver.  Within a chunk the
// candidates arrive in ascending document order, so the Score table is
// walked left to right through the query context's leaf-locality probe
// instead of descended per candidate.
func resolveChunk(ctx *queryCtx, g *postings.Group) (float64, bool, error) {
	row, ok, err := ctx.score.Get(g.Doc)
	return resolveListed(ctx, g, row, ok, err)
}

// prepare implements kindMethod: the order's build-time directory.
func (m *thresholdMethod) prepare(bc *builtCorpus) { m.order.prepare(bc) }

// applyScore implements kindMethod: Algorithm 1, over list keys, on the
// document's one row.  Whether the postings move is decided from the row as
// it stands, and the content a move needs is read before the first write,
// so an update that fails changes nothing.
func (m *thresholdMethod) applyScore(doc DocID, newScore float64) error {
	old, changed, err := m.scoreChange(doc, newScore)
	if !changed {
		return err
	}
	listKey, newKey := old.key, m.keyOf(newScore)
	if newKey <= m.order.thresholdValueOf(listKey) {
		m.setScore(doc, docRow{val: newScore, key: listKey, short: old.short})
		m.ceil.raise(listKey, newScore)
		return nil
	}
	tokens, err := m.docTokens(doc)
	if err != nil {
		return fmt.Errorf("index: %s update for %d needs document content: %w", m.Name(), doc, err)
	}
	for _, tw := range docTermWeights(tokens) {
		if old.short {
			m.lists.Delete(tw.term, listKey, doc)
		}
		m.lists.Put(tw.term, newKey, doc, postings.OpAdd, tw.w)
		m.counters.shortListPostingsWritten.Add(1)
	}
	m.setScore(doc, docRow{val: newScore, key: newKey, short: true})
	m.ceil.raise(newKey, newScore)
	return nil
}

// plan implements kindMethod: Algorithm 2 over the kind's list order, or
// Algorithm 3 for a combined SVR + term-score query.
func (m *thresholdMethod) plan(ctx *queryCtx) (rankedQuery, error) {
	if ctx.query.WithTermScores {
		return m.planTermScores(ctx)
	}
	if err := m.termStreams(ctx); err != nil {
		return rankedQuery{}, err
	}
	return rankedQuery{need: ctx.need(), stop: m.order.stop, resolve: m.order.resolve}, nil
}
