package core

import (
	"context"

	"github.com/spine-index/spine/internal/trace"
)

// Context-aware query variants. The backbone occurrence scan is O(n) per
// query regardless of the occurrence count, so a production server needs
// to abort scans whose request deadline has passed. The scan loops
// check ctx every cancelStride nodes — cheap enough to be free,
// frequent enough that cancellation lands within tens of microseconds.

// cancelStride is the number of backbone nodes scanned between
// cancellation checkpoints.
const cancelStride = 1 << 14

// ScanResult carries the outcome of a context-aware occurrence query.
type ScanResult struct {
	// Positions lists occurrence start offsets in increasing order.
	Positions []int
	// Truncated reports that the scan stopped at the caller's limit;
	// more occurrences may exist.
	Truncated bool
	// NodesChecked counts index nodes examined (descent steps plus
	// backbone nodes scanned) — the paper's §4.1 work metric.
	NodesChecked int64
}

// FindAllCtx is FindAll with cancellation and an optional result cap:
// limit <= 0 means unlimited. It returns ctx.Err() if the context ends
// mid-scan.
func (idx *Index) FindAllCtx(ctx context.Context, p []byte, limit int) (ScanResult, error) {
	return findAllOnCtx(ctx, idx, p, limit)
}

// FindAllCtx is the compact-layout variant; see Index.FindAllCtx.
func (c *CompactIndex) FindAllCtx(ctx context.Context, p []byte, limit int) (ScanResult, error) {
	codes, ok := c.encodePattern(p)
	if !ok {
		// A letter outside the alphabet occurs nowhere; the pattern walk
		// is the only work done.
		if tr := trace.FromContext(ctx); tr != nil {
			tr.Add(trace.StageDescend, 0, trace.Counters{Nodes: int64(len(p))})
		}
		return ScanResult{NodesChecked: int64(len(p))}, ctx.Err()
	}
	return findAllOnCtx(ctx, c, codes, limit)
}

func findAllOnCtx[S store](ctx context.Context, s S, p []byte, limit int) (ScanResult, error) {
	pos, truncated, nodes, err := findAllOn(ctx, s, p, limit, nil)
	return ScanResult{Positions: pos, Truncated: truncated, NodesChecked: nodes}, err
}

// CountCtx is Count with cancellation. Like Count, it streams: the
// occurrence set is never materialized. nodes is ScanResult's
// NodesChecked: what FindAllCtx reports for the same pattern unlimited.
func (idx *Index) CountCtx(ctx context.Context, p []byte) (count int, nodes int64, err error) {
	return countOn(ctx, idx, p, -1)
}

// CountCtx is the compact-layout variant; see Index.CountCtx.
func (c *CompactIndex) CountCtx(ctx context.Context, p []byte) (count int, nodes int64, err error) {
	codes, ok := c.encodePattern(p)
	if !ok {
		if tr := trace.FromContext(ctx); tr != nil {
			tr.Add(trace.StageDescend, 0, trace.Counters{Nodes: int64(len(p))})
		}
		return 0, int64(len(p)), ctx.Err()
	}
	return countOn(ctx, c, codes, -1)
}

// CountPrefixCtx counts the occurrences of p whose start offset is
// strictly below maxStart (maxStart < 0 means unbounded — plain
// CountCtx). Sharded counting uses the bound to ignore overlap-region
// starts without materializing or shipping positions.
func (idx *Index) CountPrefixCtx(ctx context.Context, p []byte, maxStart int) (count int, nodes int64, err error) {
	return countOn(ctx, idx, p, maxStart)
}

// ScanManyCtx is ScanMany with cancellation checkpoints; see
// Index.ScanMany for semantics.
func (idx *Index) ScanManyCtx(ctx context.Context, firsts, lens []int32) ([][]int32, error) {
	return scanManyOnCtx(ctx, idx, firsts, lens)
}

// ScanManyCtx is the compact-layout variant; see Index.ScanManyCtx.
func (c *CompactIndex) ScanManyCtx(ctx context.Context, firsts, lens []int32) ([][]int32, error) {
	return scanManyOnCtx(ctx, c, firsts, lens)
}

// scanManyOnCtx is the unlimited batch scan folded onto the limit-aware
// pass with zero limits: one shared implementation (block-skip
// acceleration included) instead of a duplicated scalar loop with its
// own per-call owners map. Tracing is suppressed — the legacy
// ScanManyCtx contract records no batch-scan span, and the match-engine
// paths that call it account NodesChecked themselves.
func scanManyOnCtx[S store](ctx context.Context, s S, firsts, lens []int32) ([][]int32, error) {
	if len(firsts) == 0 {
		return make([][]int32, 0), ctx.Err()
	}
	bs, err := scanManyLimitTracedOnCtx(ctx, s, firsts, lens, make([]int, len(firsts)), false)
	if err != nil {
		return nil, err
	}
	return bs.Ends, nil
}
