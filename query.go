package spine

import (
	"context"
	"fmt"

	"github.com/spine-index/spine/internal/core"
)

// QueryKind selects what a Query call computes about a pattern.
type QueryKind uint8

const (
	// KindContains answers "does p occur" (QueryResult.Found); the first
	// occurrence offset comes for free in QueryResult.Position.
	KindContains QueryKind = iota
	// KindFind answers the first occurrence offset (QueryResult.Position,
	// -1 when absent).
	KindFind
	// KindFindAll enumerates occurrence offsets (QueryResult.Positions),
	// bounded by QueryOptions.Limit.
	KindFindAll
	// KindCount answers the occurrence count (QueryResult.Count) with a
	// streaming scan; no positions are materialized.
	KindCount
)

// String names the kind for telemetry labels and cache keys.
func (k QueryKind) String() string {
	switch k {
	case KindContains:
		return "contains"
	case KindFind:
		return "find"
	case KindFindAll:
		return "findall"
	case KindCount:
		return "count"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// QueryOptions tunes one Query call.
type QueryOptions struct {
	// Kind selects the computation; the zero value is KindContains.
	Kind QueryKind
	// Limit caps KindFindAll's occurrence count (<= 0 means unlimited).
	// Other kinds ignore it.
	Limit int
	// NoCache makes a Cached querier bypass its result cache and
	// negative filter for this call. Uncached queriers ignore it.
	NoCache bool
}

// ResultSource tells how a Cached querier produced a QueryResult.
type ResultSource uint8

const (
	// SourceScan: the underlying index answered (cache miss, or no cache).
	SourceScan ResultSource = iota
	// SourceCache: served from the result cache, no index work.
	SourceCache
	// SourceNegFilter: the q-gram negative filter proved the pattern
	// absent in O(|P|), no backbone work.
	SourceNegFilter
)

// String returns the source's stable label, used verbatim in wide
// events, slow-log entries and per-endpoint cache metrics.
func (s ResultSource) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceNegFilter:
		return "negfilter"
	default:
		return "scan"
	}
}

// effectiveLimit normalizes the limit for cache identity: only
// KindFindAll results depend on it.
func (o QueryOptions) effectiveLimit() int {
	if o.Kind == KindFindAll && o.Limit > 0 {
		return o.Limit
	}
	return 0
}

// coreQuerier is the slice of the core engine Query needs; both core
// layouts satisfy it.
type coreQuerier interface {
	EndNodeCtx(ctx context.Context, p []byte) (int32, bool)
	FindAllCtx(ctx context.Context, p []byte, limit int) (core.ScanResult, error)
	CountCtx(ctx context.Context, p []byte) (count int, nodes int64, err error)
}

// queryOn answers one Query against a single (unsharded) core index.
func queryOn(ctx context.Context, c coreQuerier, p []byte, opts QueryOptions) (QueryResult, error) {
	switch opts.Kind {
	case KindContains, KindFind:
		if err := ctx.Err(); err != nil {
			return QueryResult{Position: -1}, err
		}
		res := QueryResult{Position: -1, NodesChecked: int64(len(p))}
		if end, ok := c.EndNodeCtx(ctx, p); ok {
			res.Found = true
			res.Position = int(end) - len(p)
		}
		return res, nil
	case KindFindAll:
		scan, err := c.FindAllCtx(ctx, p, opts.Limit)
		res := queryResultOf(scan)
		res.normalize()
		return res, err
	case KindCount:
		n, nodes, err := c.CountCtx(ctx, p)
		return QueryResult{Count: n, Found: n > 0, Position: -1, NodesChecked: nodes}, err
	default:
		return QueryResult{Position: -1}, fmt.Errorf("%w: %d", ErrBadQueryKind, opts.Kind)
	}
}

// Query implements Querier: the single entrypoint for every read
// (contains, find, findall, count), selected by opts.Kind. All legacy
// per-method entry points are thin shims over it, and the Cached
// decorator intercepts exactly this method — one choke point for the
// result cache and the negative filter.
func (x *Index) Query(ctx context.Context, p []byte, opts QueryOptions) (QueryResult, error) {
	return queryOn(ctx, x.c, p, opts)
}

// Query implements Querier; see Index.Query. Patterns with letters
// outside the alphabet simply do not occur.
func (x *Compact) Query(ctx context.Context, p []byte, opts QueryOptions) (QueryResult, error) {
	return queryOn(ctx, x.c, p, opts)
}

// Query implements Querier; see Index.Query. Patterns longer than
// MaxPattern fail with ErrPatternTooLong.
func (s *Sharded) Query(ctx context.Context, p []byte, opts QueryOptions) (QueryResult, error) {
	if err := s.checkPattern(p); err != nil {
		return QueryResult{Position: -1}, err
	}
	switch opts.Kind {
	case KindContains, KindFind:
		return s.findFirst(ctx, p)
	case KindFindAll:
		res, err := s.findAllLimit(ctx, p, opts.Limit)
		if err != nil {
			return QueryResult{Position: -1}, err
		}
		res.normalize()
		return res, nil
	case KindCount:
		n, nodes, err := s.count(ctx, p)
		if err != nil {
			return QueryResult{Position: -1}, err
		}
		return QueryResult{Count: n, Found: n > 0, Position: -1, NodesChecked: nodes}, nil
	default:
		return QueryResult{Position: -1}, fmt.Errorf("%w: %d", ErrBadQueryKind, opts.Kind)
	}
}
