package spine

import (
	"context"

	"github.com/spine-index/spine/internal/core"
)

// Querier is the read-side query surface shared by every index flavor:
// the reference Index, the frozen Compact layout, the parallel Sharded
// index and the Cached decorator all satisfy it, so servers and
// benchmark harnesses can run against any of them interchangeably.
//
// The surface is deliberately one entrypoint wide: Query answers any
// single-pattern read, selected by QueryOptions.Kind, and QueryBatch is
// its many-pattern twin. The per-method variants of the old API
// (ContainsContext, FindContext, FindAllContext, FindAllLimitContext,
// CountContext) remain on the concrete types as thin shims over Query,
// but are no longer part of the interface — a decorator that wraps
// Query (the result cache, the negative filter) intercepts every read.
//
// The context governs cancellation: occurrence enumeration is an O(n)
// backbone scan regardless of how many occurrences exist, and
// implementations abort it promptly (returning ctx.Err()) once the
// context ends. KindContains/KindFind descend the pattern only and
// check the context at entry.
type Querier interface {
	// Query answers one pattern: the kind in opts selects membership,
	// first occurrence, occurrence enumeration (limit-bounded) or count.
	Query(ctx context.Context, p []byte, opts QueryOptions) (QueryResult, error)
	// QueryBatch answers many patterns at once: identical patterns are
	// deduplicated, valid-path descents run through a bounded worker
	// pool, and all occurrence sets are resolved by a single backbone
	// scan per index (per shard on a Sharded index) — the paper's §4
	// set-basis deferral applied across queries. Results align with
	// patterns by position; per-item failures (e.g. an overlong pattern
	// on a sharded index) are reported in QueryResult.Err, while the
	// returned error is reserved for batch-wide failures such as
	// cancellation.
	QueryBatch(ctx context.Context, patterns [][]byte, opts BatchOptions) ([]QueryResult, error)
	// Len returns the number of indexed characters.
	Len() int
}

// QueryResult is the outcome of one Query call or one item of a batch
// query. Which fields are meaningful depends on the QueryKind:
// KindContains and KindFind set Found and Position; KindFindAll sets
// Positions, Count, Truncated, Found and Position; KindCount sets Count
// and Found. NodesChecked and Source are always set.
type QueryResult struct {
	// Found reports that the pattern occurs (never true for a result
	// computed with zero occurrences).
	Found bool
	// Position is the first occurrence's start offset, or -1. KindCount
	// results leave it -1 (the streaming count keeps no positions).
	Position int
	// Count is the number of occurrences: exact for KindCount, the
	// (possibly limit-truncated) enumerated count for KindFindAll, and 0
	// for the kinds that do not count.
	Count int
	// Positions lists occurrence start offsets in increasing order
	// (KindFindAll only).
	Positions []int
	// Truncated reports that the scan stopped at the limit; more
	// occurrences may exist.
	Truncated bool
	// NodesChecked counts index nodes examined by the query — the
	// paper's §4.1 work metric, aggregated by serving telemetry. For a
	// batch item it is the pattern's descent cost plus its amortized
	// share of the batch's single backbone scan, so summing over a batch
	// reproduces the batch's true total work. A cached or
	// negative-filtered answer reports the work actually done now: zero.
	NodesChecked int64
	// Source tells how a Cached querier produced this result (scan,
	// cache hit, or negative-filter rejection); always SourceScan from
	// an uncached querier. Excluded from JSON: it is serving-side
	// attribution, not part of the answer.
	Source ResultSource `json:"-"`
	// Err reports a per-item failure of a batch query (it wraps a
	// sentinel such as ErrPatternTooLong); always nil outside batches
	// and for successful items.
	Err error `json:"-"`
}

// normalize fills the derived fields (Count, Found, Position) of an
// enumeration result from its Positions.
func (r *QueryResult) normalize() {
	r.Count = len(r.Positions)
	r.Found = len(r.Positions) > 0
	if r.Found {
		r.Position = r.Positions[0]
	} else {
		r.Position = -1
	}
}

// Compile-time checks: every index flavor (and the cache decorator) is
// a Querier.
var (
	_ Querier = (*Index)(nil)
	_ Querier = (*Compact)(nil)
	_ Querier = (*Sharded)(nil)
	_ Querier = (*CachedQuerier)(nil)
)

// queryResultOf lifts a core scan result into the public shape.
func queryResultOf(res core.ScanResult) QueryResult {
	return QueryResult{Positions: res.Positions, Truncated: res.Truncated, NodesChecked: res.NodesChecked}
}

// ContainsContext reports whether p is a substring of the indexed text;
// equivalent to Query with KindContains. When ctx carries an
// internal/trace trace, the descent records per-stage spans.
func (x *Index) ContainsContext(ctx context.Context, p []byte) (bool, error) {
	res, err := x.Query(ctx, p, QueryOptions{Kind: KindContains})
	return res.Found, err
}

// FindContext returns the start offset of p's first occurrence, or -1;
// equivalent to Query with KindFind.
func (x *Index) FindContext(ctx context.Context, p []byte) (int, error) {
	res, err := x.Query(ctx, p, QueryOptions{Kind: KindFind})
	return res.Position, err
}

// FindAllContext returns every occurrence start offset in increasing
// order; equivalent to Query with KindFindAll and no limit.
func (x *Index) FindAllContext(ctx context.Context, p []byte) ([]int, error) {
	res, err := x.Query(ctx, p, QueryOptions{Kind: KindFindAll})
	return res.Positions, err
}

// FindAllLimitContext returns at most limit occurrences (limit <= 0
// means unlimited); equivalent to Query with KindFindAll.
func (x *Index) FindAllLimitContext(ctx context.Context, p []byte, limit int) (QueryResult, error) {
	return x.Query(ctx, p, QueryOptions{Kind: KindFindAll, Limit: limit})
}

// CountContext returns the number of occurrences of p; equivalent to
// Query with KindCount.
func (x *Index) CountContext(ctx context.Context, p []byte) (int, error) {
	res, err := x.Query(ctx, p, QueryOptions{Kind: KindCount})
	return res.Count, err
}

// ContainsContext reports whether p is a substring of the indexed text;
// see Index.ContainsContext.
func (x *Compact) ContainsContext(ctx context.Context, p []byte) (bool, error) {
	res, err := x.Query(ctx, p, QueryOptions{Kind: KindContains})
	return res.Found, err
}

// FindContext returns the start offset of p's first occurrence, or -1;
// see Index.FindContext.
func (x *Compact) FindContext(ctx context.Context, p []byte) (int, error) {
	res, err := x.Query(ctx, p, QueryOptions{Kind: KindFind})
	return res.Position, err
}

// FindAllContext returns every occurrence start offset in increasing
// order; see Index.FindAllContext.
func (x *Compact) FindAllContext(ctx context.Context, p []byte) ([]int, error) {
	res, err := x.Query(ctx, p, QueryOptions{Kind: KindFindAll})
	return res.Positions, err
}

// FindAllLimitContext returns at most limit occurrences; see
// Index.FindAllLimitContext.
func (x *Compact) FindAllLimitContext(ctx context.Context, p []byte, limit int) (QueryResult, error) {
	return x.Query(ctx, p, QueryOptions{Kind: KindFindAll, Limit: limit})
}

// CountContext returns the number of occurrences of p; see
// Index.CountContext.
func (x *Compact) CountContext(ctx context.Context, p []byte) (int, error) {
	res, err := x.Query(ctx, p, QueryOptions{Kind: KindCount})
	return res.Count, err
}
