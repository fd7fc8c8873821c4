package core

import (
	"context"
	"time"

	"github.com/spine-index/spine/internal/trace"
)

// ScanMany resolves the occurrence end sets of many matches in one
// sequential pass over the backbone — the §4 optimization: "we defer this
// step until the first occurrences of all matches are found, and then, in
// one single final sequential scan of the backbone, the repeated
// occurrences of all matching patterns are concurrently found."
//
// firsts[i] is the first-occurrence end node of match i and lens[i] its
// length; the result's i-th slice lists every end node of match i in
// increasing order.
func (idx *Index) ScanMany(firsts, lens []int32) [][]int32 {
	return scanManyOn(idx, firsts, lens)
}

// ScanMany is the compact-layout variant; see Index.ScanMany.
func (c *CompactIndex) ScanMany(firsts, lens []int32) [][]int32 {
	return scanManyOn(c, firsts, lens)
}

// scanManyOn delegates to the shared unlimited batch pass (see
// scanManyOnCtx); a background context never cancels it.
func scanManyOn[S store](s S, firsts, lens []int32) [][]int32 {
	out, _ := scanManyOnCtx(context.Background(), s, firsts, lens)
	return out
}

// BatchScan is the outcome of a limit-aware batched occurrence scan.
type BatchScan struct {
	// Ends[i] lists every occurrence end node of match i in increasing
	// order, the first occurrence included.
	Ends [][]int32
	// Truncated[i] reports that match i stopped at its limit; more
	// occurrences may exist.
	Truncated []bool
	// Scanned is the number of backbone nodes examined by the single
	// shared scan — counted once for the whole batch, which is the point
	// of §4's deferral: N patterns cost one O(n) pass, not N.
	Scanned int64
}

// ScanManyLimitCtx is ScanMany with per-match result caps and
// cancellation — the serving-stack form of the §4 optimization. firsts
// and lens are as in ScanMany; limits[i] caps match i's total occurrence
// count (the first occurrence included; <= 0 means unlimited). Each
// match's truncation mirrors the single-query FindAllCtx semantics
// exactly, so batched and per-pattern queries are byte-identical. The
// scan ends early once every match has reached its cap. When ctx
// carries a trace, the pass records one StageBatchScan span.
func (idx *Index) ScanManyLimitCtx(ctx context.Context, firsts, lens []int32, limits []int) (BatchScan, error) {
	return scanManyLimitTracedOnCtx(ctx, idx, firsts, lens, limits, true)
}

// ScanManyLimitCtx is the compact-layout variant; see Index.ScanManyLimitCtx.
func (c *CompactIndex) ScanManyLimitCtx(ctx context.Context, firsts, lens []int32, limits []int) (BatchScan, error) {
	return scanManyLimitTracedOnCtx(ctx, c, firsts, lens, limits, true)
}

// scanManyLimitTracedOnCtx is the shared batched scan. traced=false
// suppresses the StageBatchScan span — the unlimited ScanManyCtx fold
// rides through here, and its legacy callers account work themselves;
// an extra span would double-count nodes in the per-stage partition.
func scanManyLimitTracedOnCtx[S store](ctx context.Context, s S, firsts, lens []int32, limits []int, traced bool) (BatchScan, error) {
	res := BatchScan{
		Ends:      make([][]int32, len(firsts)),
		Truncated: make([]bool, len(firsts)),
	}
	if err := ctx.Err(); err != nil {
		return BatchScan{}, err
	}
	if len(firsts) == 0 {
		return res, nil
	}
	tr := trace.FromContext(ctx)
	if !traced {
		tr = nil
	}
	var scanStart time.Time
	if tr != nil {
		scanStart = time.Now()
	}
	endScan := func(st scanStats) {
		res.Scanned = st.visited
		st.record(tr, trace.StageBatchScan, scanStart)
	}
	// owners[node] lists the matches whose target buffer contains node;
	// done matches stay listed but are skipped, so a capped match stops
	// accumulating without disturbing the others.
	owners := make(map[int32][]int32)
	done := make([]bool, len(firsts))
	active := 0
	minFirst := int32(-1)
	maxMember := int32(0) // largest target-set node across active matches
	for i := range firsts {
		res.Ends[i] = []int32{firsts[i]}
		if limits[i] == 1 {
			// The single-query path truncates unconditionally at limit 1
			// without scanning; mirror it so batch results stay identical.
			done[i], res.Truncated[i] = true, true
			continue
		}
		owners[firsts[i]] = append(owners[firsts[i]], int32(i))
		if minFirst < 0 || firsts[i] < minFirst {
			minFirst = firsts[i]
		}
		if firsts[i] > maxMember {
			maxMember = firsts[i]
		}
		active++
	}
	if active == 0 {
		endScan(scanStats{})
		return res, nil
	}
	n := s.textLen()
	if blockSkipOff.Load() {
		// Scalar oracle: visit every node after the earliest first.
		for j := minFirst + 1; j <= n; j++ {
			if (j-minFirst)%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					// Node j itself was never examined; see findAllOnCtx.
					endScan(scanStats{visited: int64(j - minFirst - 1)})
					return BatchScan{Scanned: res.Scanned}, err
				}
			}
			link, lel := s.linkOf(j)
			ms, ok := owners[link]
			if !ok {
				continue
			}
			for _, m := range ms {
				if done[m] || lel < lens[m] || j <= firsts[m] {
					continue
				}
				res.Ends[m] = append(res.Ends[m], j)
				owners[j] = append(owners[j], m)
				if limits[m] > 0 && len(res.Ends[m]) >= limits[m] {
					done[m], res.Truncated[m] = true, j < n
					active--
				}
			}
			if active == 0 {
				endScan(scanStats{visited: int64(j - minFirst)})
				return res, nil
			}
		}
		endScan(scanStats{visited: int64(n - minFirst)})
		return res, nil
	}
	// Block-skip scan: the admission test generalizes the single-pattern
	// conditions to the batch. A block is skippable when no active match
	// can admit a node in it: maxLEL below every active length, maxLink
	// before every member (members are >= minFirst), or minLink beyond
	// the newest member (an in-block member would need a link to an
	// earlier member, which the same condition rules out inductively).
	minActiveLen := lens[0]
	recalcMinLen := func() {
		minActiveLen = int32(1) << 30
		for i := range lens {
			if !done[i] && lens[i] < minActiveLen {
				minActiveLen = lens[i]
			}
		}
	}
	recalcMinLen()
	// sc holds the union of every match's target set: one cache-resident
	// bit probe (behind the lel test) decides whether the owners map needs
	// consulting at all, which it does only for true members.
	sc := getScratch(n)
	defer putScratch(sc)
	for i, f := range firsts {
		if !done[i] {
			sc.add(f)
		}
	}
	it := newBlockIter(ctx, s, minFirst+1, n, minFirst, minActiveLen)
	for {
		base, mask, ok := it.next(maxMember)
		if !ok {
			break
		}
		for mask != 0 {
			// minActiveLen may have risen since the mask was computed: it
			// is passed again after every hit, and the probe's exact LEL
			// test decides over what is then a superset mask.
			var j int32
			if j, mask = s.nextMember(base, mask, minActiveLen, sc.bits); j == 0 {
				break
			}
			link, lel := s.linkOf(j)
			for _, m := range owners[link] {
				if done[m] || lel < lens[m] || j <= firsts[m] {
					continue
				}
				res.Ends[m] = append(res.Ends[m], j)
				owners[j] = append(owners[j], m)
				sc.add(j)
				if j > maxMember {
					maxMember = j
				}
				if limits[m] > 0 && len(res.Ends[m]) >= limits[m] {
					done[m], res.Truncated[m] = true, j < n
					active--
					if lens[m] <= minActiveLen {
						recalcMinLen()
						it.patlen = minActiveLen
					}
				}
			}
			if active == 0 {
				it.stopAt(j)
				endScan(it.st)
				return res, nil
			}
		}
	}
	endScan(it.st)
	if it.err != nil {
		return BatchScan{Scanned: res.Scanned}, it.err
	}
	return res, nil
}
