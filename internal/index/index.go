package index

import (
	"errors"
	"fmt"
	"sync/atomic"

	"svrdb/internal/postings"
	"svrdb/internal/storage/blob"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/epoch"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/text"
	"svrdb/internal/topk"
)

// DocID aliases the postings document identifier for convenience.
type DocID = postings.DocID

// DocSource supplies document content to index builds and to score-update
// processing (Algorithm 1 touches every term of the updated document).
type DocSource interface {
	// NumDocs reports the number of documents.
	NumDocs() int
	// ForEach visits every document with its token stream (tokens may repeat;
	// the index derives term frequencies itself).
	ForEach(func(doc DocID, tokens []string) error) error
	// Tokens returns the token stream of one document.
	Tokens(doc DocID) ([]string, error)
}

// ScoreFunc returns the initial SVR score of a document at build time.
type ScoreFunc func(doc DocID) float64

// Query describes one keyword-search request.
type Query struct {
	// Terms are the query keywords (analyzed terms).
	Terms []string
	// K is the number of results wanted.
	K int
	// Disjunctive selects OR semantics (documents containing at least one
	// term); the default is conjunctive (all terms).
	Disjunctive bool
	// WithTermScores requests the combined SVR + term-score ranking of
	// §4.3.3.  Only the TermScore methods support it; the others return
	// ErrTermScoresUnsupported.
	WithTermScores bool
	// Global, when set, overrides the collection statistics used for IDF
	// with cluster-wide values so a shard ranks with the same idf as a
	// single engine holding the whole corpus.  DF is aligned with Terms.
	Global *GlobalStats
}

// GlobalStats carries cluster-wide collection statistics for sharded
// ranking: the total document count and the per-query-term document
// frequencies summed over every shard.  With these overriding a shard's
// local statistics, per-shard TFIDF contributions are bit-identical to the
// single-engine computation, which makes the scatter-gather top-k merge
// byte-identical as well.
type GlobalStats struct {
	NumDocs int64
	// DF[i] is the global document frequency of Query.Terms[i].
	DF []int64
}

// Validate checks the query shape.
func (q *Query) Validate() error {
	if len(q.Terms) == 0 {
		return errors.New("index: query needs at least one term")
	}
	if q.K < 1 {
		return fmt.Errorf("index: query k = %d must be positive", q.K)
	}
	if q.Global != nil && len(q.Global.DF) != len(q.Terms) {
		return fmt.Errorf("index: global stats carry %d df entries for %d terms", len(q.Global.DF), len(q.Terms))
	}
	return nil
}

// Result is one ranked document.
type Result = topk.Result

// QueryResult carries the ranked documents plus the per-query work counters
// the experiments report.
type QueryResult struct {
	Results []Result
	// PostingsScanned counts long+short list postings consumed.
	PostingsScanned int
	// ScoreLookups counts random probes of the Score table.
	ScoreLookups int
	// Stopped reports whether the query terminated before exhausting the
	// lists (early termination).
	Stopped bool
}

// ErrTermScoresUnsupported is returned when a query requests combined
// SVR+term ranking from a method that does not store term scores.
var ErrTermScoresUnsupported = errors.New("index: method does not store term scores")

// ErrUnknownDocument is returned when an update refers to a document the
// index has never seen or has deleted, and wrapped (together with the
// document source's error, if it gave one) when maintenance needs a
// document's content and the document source lacks it.
var ErrUnknownDocument = errors.New("index: unknown document")

// ErrClosed is returned by queries issued after the method was drained.
var ErrClosed = errors.New("index: method is closed")

// UpdateKind discriminates the operations an Update batch can carry.
type UpdateKind uint8

const (
	// ScoreOp is a document score change (Algorithm 1).
	ScoreOp UpdateKind = iota
	// InsertOp adds a new document (Appendix A.2).
	InsertOp
	// DeleteOp removes a document (Appendix A.2).
	DeleteOp
	// ContentOp replaces a document's token stream (Appendix A.1).
	ContentOp
)

// String implements fmt.Stringer.
func (k UpdateKind) String() string {
	switch k {
	case ScoreOp:
		return "score"
	case InsertOp:
		return "insert"
	case DeleteOp:
		return "delete"
	case ContentOp:
		return "content"
	default:
		return fmt.Sprintf("UpdateKind(%d)", uint8(k))
	}
}

// Update is one operation of a write batch, covering all four incremental
// maintenance paths.  Which fields are read depends on Op:
//
//   - ScoreOp:   Doc, Score (the new score)
//   - InsertOp:  Doc, Tokens, Score (the initial score)
//   - DeleteOp:  Doc, OldTokens
//   - ContentOp: Doc, OldTokens, NewTokens
type Update struct {
	Op    UpdateKind
	Doc   DocID
	Score float64
	// Tokens is the token stream of an inserted document.
	Tokens []string
	// OldTokens and NewTokens are the previous and new token streams of a
	// content update.  A delete carries the deleted document's stream in
	// OldTokens, because its row is gone by the time the index applies the
	// op; without it (nil) the index falls back to its document source.  A
	// delete reads them only to uncount document frequencies: it purges the
	// document's short-list postings by document, whatever their terms.
	OldTokens, NewTokens []string
}

// Method is the common interface of all six index structures.
type Method interface {
	// Name returns the method's name as used in the paper's tables.
	Name() string
	// Build bulk-loads the long inverted lists and the Score table of a
	// freshly constructed method.
	Build(src DocSource, scores ScoreFunc) error
	// ApplyUpdates is the only incremental write: score updates
	// (Algorithm 1), inserts, deletes and content updates (Appendix A), each
	// applied as if one at a time in batch order, with the underlying table
	// and list writes grouped so that every touched B+-tree leaf is rewritten
	// once per batch instead of once per posting, and published once.  An
	// update of a document the index has never seen, or has deleted, is
	// ErrUnknownDocument: no op resurrects a document.  A failing update
	// does not abort the batch: the remaining updates still apply and the
	// errors are joined.
	ApplyUpdates(batch []Update) error
	// MergeShortLists performs the periodic offline merge: the long lists are
	// rebuilt from the current collection state and the short lists emptied
	// (§5.1, Appendix A.3).  It is a no-op for the Score method.
	MergeShortLists() error
	// TopK evaluates a keyword query against the latest scores.
	TopK(q Query) (*QueryResult, error)
	// TermStats reports the collection statistics TFIDF depends on — the
	// document count and the document frequency of each given term — from
	// the latest published snapshot.  A cluster sums these across shards
	// into the GlobalStats it passes back through Query.Global.
	TermStats(terms []string) (numDocs int64, df []int64, err error)
	// ScoreOf reads one document's score from the Score table of the latest
	// published snapshot, as a query's probe would; ok is false for a
	// document the index has never seen or has deleted.
	ScoreOf(doc DocID) (score float64, ok bool, err error)
	// Stats returns cumulative counters and structure sizes.
	Stats() Stats
	// State snapshots the method's navigational state for a checkpoint; the
	// page-resident structures it anchors must already be flushed.  It is
	// Anchor and Dictionary together; a checkpoint takes the anchor every
	// time and pays for the dictionary copy only when Anchor().DictGen moved.
	State() MethodState
	Anchor() MethodAnchor
	Dictionary() MethodDict
	// SetSource rewires the document source after a Restore (Build sets it
	// itself).
	SetSource(src DocSource)
	// Drain fences out new readers, waits for in-flight queries to leave
	// their epochs and recycles every retired page.  The method must not be
	// used after Drain returns; queries racing it get ErrClosed.
	Drain() error
	// Pages appends to dst every page the method's structures occupy — its
	// B+-trees' and its blobs' — each once: what ReleasePages retires, and
	// what a durable engine keeps live when it opens its file.  It reads
	// the trees' internal nodes.
	Pages(dst []pagefile.PageID) ([]pagefile.PageID, error)
	// ReleasePages retires every page the method's structures occupy so an
	// online drop returns them to the pagefile free list.  The caller must
	// have fenced out writers, and must Drain afterwards to recycle the
	// retired pages; the method is unusable once released.
	ReleasePages() error
}

// Stats describes an index's size and the work it has performed.
type Stats struct {
	Method string
	// LongListBytes is the total size of the immutable long inverted lists
	// (Table 1 of the paper).  For the Score method it is the size of the
	// clustered score-ordered B+-tree contents.
	LongListBytes uint64
	// LongListRawBytes is what the same long-list postings would occupy in
	// fixed-width form (8 bytes per doc id, 8 per score, 4 per term weight
	// or chunk header) — the denominator of the compression ratio.  Zero
	// for the Score method, whose postings live in B+-tree leaves rather
	// than blobs.
	LongListRawBytes uint64
	// PagesRead and PageHits mirror the buffer pool's cumulative miss and
	// hit counters for the pool hosting this index.  On a pool shared by
	// several indexes they aggregate across all of them; the bench rig
	// gives each method its own pool so per-query page deltas are exact.
	PagesRead uint64
	PageHits  uint64
	// ShortListEntries is the number of postings currently in short lists.
	ShortListEntries int
	// ScoreUpdates counts applied ScoreOp updates that changed a score.
	ScoreUpdates uint64
	// ShortListPostingsWritten counts postings inserted into or rewritten in
	// the short lists (the expensive part of an update).
	ShortListPostingsWritten uint64
	// LongListPostingsWritten counts postings rewritten in place in the long
	// lists (only the Score method does this).
	LongListPostingsWritten uint64
	// Queries counts TopK calls; PostingsScanned the postings they consumed.
	Queries         uint64
	PostingsScanned uint64
	// TablePatches counts B+-tree writes the method's updatable structures
	// (Score table, ListScore/ListChunk tables, short and clustered lists)
	// absorbed via the in-place leaf patch fast path instead of a full leaf
	// rewrite.  On a pure score-update workload it should track ScoreUpdates
	// closely; a collapse to zero means the fast path regressed.
	TablePatches uint64
	// Epoch is the current snapshot epoch (advanced on every publication).
	Epoch uint64
	// ActiveReaders is the number of queries currently pinned to an epoch.
	ActiveReaders int
	// RetainedPages is the number of superseded pages kept alive for
	// snapshot readers, awaiting epoch drain.
	RetainedPages int
}

// Config carries the tunable parameters shared by the methods.
type Config struct {
	// Pool hosts every B+-tree and blob the index creates.
	Pool *buffer.Pool
	// ThresholdRatio is the Score-Threshold knob t in
	// thresholdValueOf(score) = t * score; must be >= 1.
	ThresholdRatio float64
	// ChunkRatio is the Chunk knob c: adjacent chunk lower bounds differ by a
	// factor of c; must be > 1.
	ChunkRatio float64
	// MinChunkSize is the minimum number of documents per chunk.
	MinChunkSize int
	// FancyListSize is the number of highest-term-score postings kept in each
	// fancy list of the Chunk-TermScore method.
	FancyListSize int
}

// Defaults fills unset fields with the values used throughout the paper's
// evaluation (threshold ratio 11.24, chunk ratio 6.12, minimum chunk size
// 100, fancy lists of 32 postings).
func (c Config) Defaults() Config {
	if c.ThresholdRatio < 1 {
		c.ThresholdRatio = 11.24
	}
	if c.ChunkRatio <= 1 {
		c.ChunkRatio = 6.12
	}
	if c.MinChunkSize <= 0 {
		c.MinChunkSize = 100
	}
	if c.FancyListSize <= 0 {
		c.FancyListSize = 32
	}
	return c
}

// checked fills the defaults of a Config that names a pool.
func (c Config) checked() (Config, error) {
	if c.Pool == nil {
		return c, errors.New("index: Config.Pool is required")
	}
	return c.Defaults(), nil
}

// counters groups the atomic statistics shared by all method
// implementations.
type counters struct {
	scoreUpdates             atomic.Uint64
	shortListPostingsWritten atomic.Uint64
	longListPostingsWritten  atomic.Uint64
	queries                  atomic.Uint64
	postingsScanned          atomic.Uint64
}

// kindMethod is what a method type adds to the shared base: the algorithms
// the paper states per method.  Everything else in Method — batches, merge,
// release, state, stats — is written once on base and reaches these through
// base.self.  The per-op handlers are what ApplyUpdates dispatches to: base
// writes each once (maintain.go), and a kind overrides the ones whose paper
// algorithm differs — the threshold family's Algorithm 1, the Score method's
// in-place posting moves.  Handlers write into the overlays only.
type kindMethod interface {
	Method
	// buildLists writes the kind's long lists for the accumulated corpus;
	// base.build has already loaded the Score table.
	buildLists(bc *builtCorpus) error
	applyScore(doc DocID, newScore float64) error
	applyInsert(doc DocID, tokens []string, score float64) error
	applyDelete(doc DocID, tokens []string) error
	applyContent(doc DocID, oldTokens, newTokens []string) error
}

// base is the live state of a method of any kind, in the shape snap and
// MethodState already have: a Score table, one mutable keyed list, an
// optional ListScore/ListChunk table, the long-list blobs and the extras
// only some kinds fill (unused ones stay zero).
type base struct {
	kind  *Kind
	self  kindMethod
	cfg   Config
	store *blob.Store
	dict  *text.Dictionary
	score *docTable
	src   DocSource

	// lists is the kind's single mutable keyed list: the ID family's
	// auxiliary list, the Score method's clustered long lists, or the
	// threshold family's short lists.
	lists *keyedList
	// table is the ListScore/ListChunk table (threshold family only).
	table *docTable
	// keyOf maps a document's score to the sort key its postings are filed
	// under in lists: constant 0 for the ID family (postings order by
	// document), the score itself for Score and Score-Threshold, the chunk
	// of the score for the Chunk family.
	keyOf func(score float64) float64

	// longRefs maps terms to their long-list blobs.  Snapshots share this
	// map by pointer, so writers never mutate it in place: build and merge
	// paths accumulate refs in a local map and swap it in wholesale.
	longRefs  map[string]blob.Ref
	longBytes uint64
	// longRawBytes accumulates the fixed-width footprint of every posting
	// written to long-list blobs (fancy lists included), so Stats can
	// report the compression ratio without re-reading the lists.
	longRawBytes uint64
	// scoreDir is the score directory of the Score-Threshold long lists:
	// the distinct build-time scores in descending order, shared by every
	// list so each posting stores a small rank delta instead of a raw
	// float64.
	scoreDir []float64
	// chunks is the Chunk family's boundary vector, replaced wholesale by
	// every build and merge.
	chunks *chunker
	// fancyRefs/fancyMinW (Chunk-TermScore only) are replaced wholesale on
	// build and merge because published snapshots share them by pointer.
	fancyRefs  map[string]blob.Ref
	fancyMinW  map[string]float32
	fancyBytes uint64

	// dictGen is MethodAnchor.DictGen: every path that changes what
	// Dictionary() returns calls dictChanged.  Only the serialized writer
	// touches it.
	dictGen uint64
	// numDocs is atomic so concurrent queries can read the collection size
	// (for IDF) while a serialized writer inserts or deletes documents.
	numDocs  atomic.Int64
	counters counters

	// epochs tracks reader epochs and recycles retired pages; published is
	// the snapshot queries evaluate against.
	epochs    *epoch.Manager
	published atomic.Pointer[snap]

	// pubDict/pubGen/pubDF cache the last published document-frequency
	// vector so score-only publications skip the O(vocabulary) copy.
	pubDict *text.Dictionary
	pubGen  uint64
	pubDF   []int64
}

// newBase allocates the structures of a fresh method of the given kind:
// the Score table, the keyed list and, for the threshold family, the
// ListScore/ListChunk table, in that order.
func newBase(kind *Kind, cfg Config) (*base, error) {
	cfg, err := cfg.checked()
	if err != nil {
		return nil, err
	}
	b := &base{
		kind:     kind,
		cfg:      cfg,
		store:    blob.NewStore(cfg.Pool),
		dict:     text.NewDictionary(),
		longRefs: map[string]blob.Ref{},
	}
	if b.score, err = newDocTable(cfg.Pool, scoreFlags); err != nil {
		return nil, err
	}
	if b.lists, err = newKeyedList(cfg.Pool); err != nil {
		return nil, err
	}
	if kind.listTable {
		if b.table, err = newDocTable(cfg.Pool, 0); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// start wires a constructed or restored base to the method type embedding
// it, switches its trees to copy-on-write publication and publishes the
// first snapshot.
func (b *base) start(self kindMethod) Method {
	b.self = self
	b.epochs = epoch.New(b.cfg.Pool.FreePage)
	b.score.enableCOW(b.retirePage)
	b.lists.enableCOW(b.retirePage)
	if b.table != nil {
		b.table.enableCOW(b.retirePage)
	}
	b.publish()
	return self
}

// Name implements Method.
func (b *base) Name() string { return b.kind.Name }

// dictChanged records that the MethodDict half of the state is about to
// change (see MethodAnchor.DictGen).
func (b *base) dictChanged() { b.dictGen++ }

// Stats implements Method.  LongListBytes includes the fancy lists since
// they are part of the read-only structure rebuilt offline.  For the Score
// method it is the serialized size of the clustered score-ordered lists,
// the 2,768 MB entry of Table 1 (the method pays B+-tree overhead because
// its lists must be updatable in place); LongListRawBytes and
// ShortListEntries stay zero there.
func (b *base) Stats() Stats {
	sn, guard, err := b.acquire()
	if err != nil {
		return Stats{Method: b.Name()}
	}
	defer guard.Leave()
	s := Stats{
		Method:           b.Name(),
		LongListBytes:    sn.longBytes + sn.fancyBytes,
		LongListRawBytes: sn.longRawBytes,
		ShortListEntries: sn.lists.Len(),
		TablePatches:     sn.score.Patches() + sn.table.Patches() + sn.lists.Patches(),
	}
	if b.kind.clustered {
		s.ShortListEntries = 0
		if s.LongListBytes, err = sn.lists.SizeBytes(); err != nil {
			s.LongListBytes = 0
		}
	}
	s.ScoreUpdates = b.counters.scoreUpdates.Load()
	s.ShortListPostingsWritten = b.counters.shortListPostingsWritten.Load()
	s.LongListPostingsWritten = b.counters.longListPostingsWritten.Load()
	s.Queries = b.counters.queries.Load()
	s.PostingsScanned = b.counters.postingsScanned.Load()
	ps := b.cfg.Pool.Stats()
	s.PagesRead = ps.Misses
	s.PageHits = ps.Hits
	es := b.epochs.Stats()
	s.Epoch = es.Current
	s.ActiveReaders = es.ActiveGuards
	s.RetainedPages = es.RetainedPages
	return s
}

// termWeight is one distinct term of a document with its normalized term
// frequency.
type termWeight struct {
	term string
	w    float32
}

func docTermWeights(tokens []string) []termWeight {
	tf := text.TermFrequencies(tokens)
	out := make([]termWeight, 0, len(tf))
	for term, n := range tf {
		out = append(out, termWeight{term: term, w: text.NormalizedTF(n, len(tokens))})
	}
	return out
}
