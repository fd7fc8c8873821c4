package core

import (
	"context"
	"time"

	"github.com/spine-index/spine/internal/trace"
)

// Context-aware query variants. The backbone occurrence scan is O(n) per
// query regardless of the occurrence count, so a production server needs
// to abort scans whose request deadline has passed. The loops below
// check ctx every cancelStride iterations — cheap enough to be free,
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
	var res ScanResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if len(p) == 0 {
		n := int(s.textLen()) + 1
		if limit > 0 && n > limit {
			n = limit
			res.Truncated = true
		}
		res.Positions = make([]int, n)
		for i := range res.Positions {
			res.Positions[i] = i
		}
		return res, nil
	}
	tr := trace.FromContext(ctx)
	var first int32
	var ok bool
	if tr != nil {
		first, ok = descendTracedOn(s, p, tr)
	} else {
		first, ok = endNodeOn(s, p)
	}
	res.NodesChecked = int64(len(p))
	if !ok {
		return res, nil
	}
	res.Positions = append(res.Positions, int(first)-len(p))
	if limit == 1 {
		res.Truncated = true
		return res, nil
	}
	// endScan attributes the backbone occurrence scan: scanned nodes is
	// exactly what each exit path below adds to NodesChecked, so the
	// trace's per-stage Nodes counters sum to the reported total. On the
	// accelerated path scanned means nodes actually visited — skipped
	// blocks do no work and contribute none.
	var scanStart time.Time
	if tr != nil {
		scanStart = time.Now()
	}
	endScan := func(st scanStats) { st.record(tr, trace.StageOccurrences, scanStart) }
	m := int32(len(p))
	n := s.textLen()
	if blockSkipOff.Load() {
		buf := []int32{first}
		for j := first + 1; j <= n; j++ {
			if (j-first)%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					// The checkpoint fires before node j is examined, so only
					// j-first-1 nodes beyond the descent were actually visited.
					res.NodesChecked += int64(j - first - 1)
					endScan(scanStats{visited: int64(j - first - 1)})
					return ScanResult{NodesChecked: res.NodesChecked}, err
				}
			}
			link, lel := s.linkOf(j)
			if lel >= m && containsSorted(buf, link) {
				buf = append(buf, j)
				res.Positions = append(res.Positions, int(j)-len(p))
				if limit > 0 && len(res.Positions) >= limit {
					res.Truncated = j < n
					res.NodesChecked += int64(j - first)
					endScan(scanStats{visited: int64(j - first)})
					return res, nil
				}
			}
		}
		res.NodesChecked += int64(n - first)
		endScan(scanStats{visited: int64(n - first)})
		return res, nil
	}
	sc := getScratch(n)
	maxExtra := -1
	if limit > 0 {
		maxExtra = limit - 1
	}
	var st scanStats
	var truncated bool
	var err error
	if parts := planScanParts(first, n, scanWorkersFor(n-first)); len(parts) > 1 {
		st, truncated, err = parOccScanOn(ctx, s, sc, first, m, maxExtra, parts, "findall")
	} else {
		st, truncated, err = occScanOn(ctx, s, sc, first, m, maxExtra)
	}
	res.NodesChecked += st.visited
	endScan(st)
	if err != nil {
		putScratch(sc)
		return ScanResult{NodesChecked: res.NodesChecked}, err
	}
	if len(sc.ends) > 0 {
		out := make([]int, 1, len(sc.ends)+1)
		out[0] = res.Positions[0]
		for _, e := range sc.ends {
			out = append(out, int(e)-len(p))
		}
		res.Positions = out
	}
	res.Truncated = truncated
	putScratch(sc)
	return res, nil
}

// CountCtx is Count with cancellation. Like Count, it streams: the
// occurrence set is never materialized.
func (idx *Index) CountCtx(ctx context.Context, p []byte) (int, error) {
	return countOnCtx(ctx, idx, p, -1)
}

// CountCtx is the compact-layout variant; see Index.CountCtx.
func (c *CompactIndex) CountCtx(ctx context.Context, p []byte) (int, error) {
	codes, ok := c.encodePattern(p)
	if !ok {
		if tr := trace.FromContext(ctx); tr != nil {
			tr.Add(trace.StageDescend, 0, trace.Counters{Nodes: int64(len(p))})
		}
		return 0, ctx.Err()
	}
	return countOnCtx(ctx, c, codes, -1)
}

// CountPrefixCtx counts the occurrences of p whose start offset is
// strictly below maxStart (maxStart < 0 means unbounded — plain
// CountCtx). Sharded counting uses the bound to ignore overlap-region
// starts without materializing or shipping positions.
func (idx *Index) CountPrefixCtx(ctx context.Context, p []byte, maxStart int) (int, error) {
	return countOnCtx(ctx, idx, p, maxStart)
}

// countOnCtx streams the occurrence count of p, keeping only the
// membership table: occurrences starting at or past maxStart still
// stamp membership (later occurrences may link to them) but are not
// counted. maxStart < 0 means count everything.
func countOnCtx[S store](ctx context.Context, s S, p []byte, maxStart int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := s.textLen()
	if len(p) == 0 {
		total := int(n) + 1
		if maxStart >= 0 && total > maxStart {
			total = maxStart
		}
		return total, nil
	}
	tr := trace.FromContext(ctx)
	var first int32
	var ok bool
	if tr != nil {
		first, ok = descendTracedOn(s, p, tr)
	} else {
		first, ok = endNodeOn(s, p)
	}
	if !ok {
		return 0, nil
	}
	// endBound translates the start-offset bound into end-node space:
	// start = end - len(p) < maxStart  <=>  end < maxStart + len(p).
	endBound := int32(0)
	if maxStart >= 0 {
		endBound = int32(maxStart + len(p))
	}
	count := 0
	if endBound <= 0 || first < endBound {
		count++
	}
	var scanStart time.Time
	if tr != nil {
		scanStart = time.Now()
	}
	endScan := func(st scanStats) { st.record(tr, trace.StageOccurrences, scanStart) }
	m := int32(len(p))
	if blockSkipOff.Load() {
		buf := []int32{first}
		for j := first + 1; j <= n; j++ {
			if (j-first)%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					// Node j itself was never examined; see findAllOnCtx.
					endScan(scanStats{visited: int64(j - first - 1)})
					return 0, err
				}
			}
			link, lel := s.linkOf(j)
			if lel >= m && containsSorted(buf, link) {
				buf = append(buf, j)
				if endBound <= 0 || j < endBound {
					count++
				}
			}
		}
		endScan(scanStats{visited: int64(n - first)})
		return count, nil
	}
	sc := getScratch(n)
	var extra int
	var st scanStats
	var err error
	if parts := planScanParts(first, n, scanWorkersFor(n-first)); len(parts) > 1 {
		// The partitioned scan stages end nodes instead of streaming the
		// count — O(occurrences) transient memory buys the parallel pass.
		st, _, err = parOccScanOn(ctx, s, sc, first, m, -1, parts, "count")
		if err == nil {
			for _, e := range sc.ends {
				if endBound <= 0 || e < endBound {
					extra++
				}
			}
		}
	} else {
		extra, st, err = occCountOn(ctx, s, sc, first, m, endBound)
	}
	endScan(st)
	putScratch(sc)
	if err != nil {
		return 0, err
	}
	return count + extra, nil
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
// acceleration and the partitioned parallel path included) instead of a
// duplicated scalar loop with its own per-call owners map. Tracing is
// suppressed — the legacy ScanManyCtx contract records no batch-scan
// span, and the match-engine paths that call it account NodesChecked
// themselves.
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
