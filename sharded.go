package spine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/spine-index/spine/internal/obs"
	"github.com/spine-index/spine/internal/trace"
)

// Sharded is a SPINE index split into fixed-size shards that build and
// query in parallel. SPINE construction is inherently sequential (each
// node's link depends on the previous), so a single multi-gigabyte genome
// builds on one core; sharding trades a bounded pattern length for
// near-linear build speedup and parallel query fan-out.
//
// Each shard indexes its slice of the text plus an overlap of
// maxPattern-1 characters from the next shard, so every occurrence of a
// pattern up to maxPattern long lies entirely inside at least one shard.
// Queries longer than maxPattern are rejected with ErrPatternTooLong.
type Sharded struct {
	shards    []*Index
	starts    []int // global start offset of each shard's slice
	textLen   int
	maxPat    int
	shardSize int
}

// BuildSharded indexes text in parallel shards of shardSize characters,
// supporting patterns up to maxPattern long. shardSize must be at least
// maxPattern; invalid configurations return ErrBadShardConfig.
// workers <= 0 means one goroutine per shard.
func BuildSharded(text []byte, shardSize, maxPattern, workers int) (*Sharded, error) {
	if maxPattern < 1 {
		return nil, fmt.Errorf("%w: maxPattern %d < 1", ErrBadShardConfig, maxPattern)
	}
	if shardSize < maxPattern {
		return nil, fmt.Errorf("%w: shard size %d smaller than maxPattern %d", ErrBadShardConfig, shardSize, maxPattern)
	}
	s := &Sharded{textLen: len(text), maxPat: maxPattern, shardSize: shardSize}
	for off := 0; off < len(text); off += shardSize {
		s.starts = append(s.starts, off)
		s.shards = append(s.shards, nil)
	}
	if len(s.shards) == 0 {
		s.starts = []int{0}
		s.shards = []*Index{Build(nil)}
		return s, nil
	}
	if workers <= 0 || workers > len(s.shards) {
		workers = len(s.shards)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				off := s.starts[i]
				end := off + shardSize + maxPattern - 1
				if end > len(text) {
					end = len(text)
				}
				s.shards[i] = Build(text[off:end])
			}
		}()
	}
	for i := range s.shards {
		work <- i
	}
	close(work)
	wg.Wait()
	return s, nil
}

// Len returns the total indexed length.
func (s *Sharded) Len() int { return s.textLen }

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// MaxPattern returns the longest supported query pattern.
func (s *Sharded) MaxPattern() int { return s.maxPat }

func (s *Sharded) checkPattern(p []byte) error {
	if len(p) > s.maxPat {
		return fmt.Errorf("%w: length %d exceeds the sharded index's maxPattern %d", ErrPatternTooLong, len(p), s.maxPat)
	}
	return nil
}

// Text reconstructs the indexed string from the shards' own slices
// (overlap regions belong to the next shard and are skipped). The
// Cached decorator uses it to build the q-gram negative filter.
func (s *Sharded) Text() []byte {
	out := make([]byte, 0, s.textLen)
	for i, sh := range s.shards {
		t := sh.Text()
		if i < len(s.shards)-1 && len(t) > s.shardSize {
			t = t[:s.shardSize]
		}
		out = append(out, t...)
	}
	return out
}

// Contains reports whether p occurs anywhere in the sharded text.
func (s *Sharded) Contains(p []byte) (bool, error) {
	return s.ContainsContext(context.Background(), p)
}

// ContainsContext reports whether p occurs; equivalent to Query with
// KindContains.
func (s *Sharded) ContainsContext(ctx context.Context, p []byte) (bool, error) {
	res, err := s.Query(ctx, p, QueryOptions{Kind: KindContains})
	return res.Found, err
}

// Find returns the first (global) occurrence offset of p, or -1.
func (s *Sharded) Find(p []byte) (int, error) {
	return s.FindContext(context.Background(), p)
}

// FindContext returns the first occurrence offset; equivalent to Query
// with KindFind.
func (s *Sharded) FindContext(ctx context.Context, p []byte) (int, error) {
	res, err := s.Query(ctx, p, QueryOptions{Kind: KindFind})
	return res.Position, err
}

// findFirst scans shards in order for the pattern's first (hence
// globally smallest) occurrence: an earlier shard's own slice precedes
// every later shard's, so the first hit wins and later shards are never
// descended.
func (s *Sharded) findFirst(ctx context.Context, p []byte) (QueryResult, error) {
	res := QueryResult{Position: -1}
	for i, sh := range s.shards {
		sub, err := sh.Query(ctx, p, QueryOptions{Kind: KindFind})
		res.NodesChecked += sub.NodesChecked
		if err != nil {
			return QueryResult{Position: -1}, err
		}
		if sub.Found {
			res.Found = true
			res.Position = s.starts[i] + sub.Position
			return res, nil
		}
	}
	return res, nil
}

// FindAll returns every global occurrence offset of p in increasing
// order, querying shards in parallel and deduplicating overlap-region
// hits.
func (s *Sharded) FindAll(p []byte) ([]int, error) {
	return s.FindAllContext(context.Background(), p)
}

// FindAllContext implements Querier; see FindAll.
func (s *Sharded) FindAllContext(ctx context.Context, p []byte) ([]int, error) {
	res, err := s.FindAllLimitContext(ctx, p, 0)
	return res.Positions, err
}

// FindAllLimitContext returns at most limit occurrences; equivalent to
// Query with KindFindAll.
func (s *Sharded) FindAllLimitContext(ctx context.Context, p []byte, limit int) (QueryResult, error) {
	return s.Query(ctx, p, QueryOptions{Kind: KindFindAll, Limit: limit})
}

// findAllLimit is the KindFindAll engine. Shards are scanned in
// parallel; each fetches enough hits that the merged global prefix is
// exact even though overlap-region starts are discarded. The caller
// (Query) has already validated the pattern length.
func (s *Sharded) findAllLimit(ctx context.Context, p []byte, limit int) (QueryResult, error) {
	var res QueryResult
	if len(p) == 0 {
		n := s.textLen + 1
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
	// A shard's own slice is [0, shardSize); starts in the overlap belong
	// to the next shard. The overlap holds at most maxPat-1 starts, so
	// fetching limit+maxPat-1 raw hits guarantees at least limit own-slice
	// hits whenever that many exist.
	shardLimit := 0
	if limit > 0 {
		shardLimit = limit + s.maxPat - 1
	}
	// When tracing, each shard goroutine records into its own child trace
	// (no cross-goroutine lock traffic during the fan-out); the children
	// are adopted after the barrier with their shard number stamped, so
	// the slow-query log can tell a hot shard from a slow merge.
	tr := trace.FromContext(ctx)
	qc := obs.FromContext(ctx)
	var kids []*trace.Trace
	if tr != nil {
		kids = make([]*trace.Trace, len(s.shards))
	}
	perShard := make([]QueryResult, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx := ctx
			var sp trace.Span
			if tr != nil {
				kids[i] = trace.New()
				sctx = trace.NewContext(ctx, kids[i])
				sp = kids[i].Start(trace.StageShard)
			}
			leg := qc.StartLeg(i)
			raw, err := s.shards[i].FindAllLimitContext(sctx, p, shardLimit)
			sp.End()
			leg.End(raw.NodesChecked, len(raw.Positions), err, legStages(qc, kids, i))
			if err != nil {
				errs[i] = err
				return
			}
			kept := QueryResult{Truncated: raw.Truncated, NodesChecked: raw.NodesChecked}
			for _, pos := range raw.Positions {
				if pos < s.shardSize || i == len(s.shards)-1 {
					kept.Positions = append(kept.Positions, s.starts[i]+pos)
				}
			}
			perShard[i] = kept
		}(i)
	}
	wg.Wait()
	for i, kid := range kids {
		tr.Adopt(kid, i)
	}
	for _, err := range errs {
		if err != nil {
			return QueryResult{}, err
		}
	}
	msp := tr.Start(trace.StageMerge)
	var out []int
	for _, sh := range perShard {
		out = append(out, sh.Positions...)
		res.NodesChecked += sh.NodesChecked
		res.Truncated = res.Truncated || sh.Truncated
	}
	sort.Ints(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
		res.Truncated = true
	}
	res.Positions = out
	msp.End()
	return res, nil
}

// QueryBatch implements Querier: the whole (deduplicated) batch fans
// out to every shard, each shard resolves its occurrences with a single
// backbone scan (see Index.QueryBatch), and the per-shard answers merge
// into globally ordered positions with the single-query overlap
// filtering and truncation semantics. Patterns longer than maxPattern
// fail individually via QueryResult.Err rather than failing the batch.
func (s *Sharded) QueryBatch(ctx context.Context, patterns [][]byte, opts BatchOptions) ([]QueryResult, error) {
	limits, err := opts.itemLimits(len(patterns))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]QueryResult, len(patterns))
	dupOf, uniq := batchDedupe(patterns, limits)
	// Classify the unique items: empty patterns are answered inline,
	// overlong ones fail per-item, the rest fan out.
	work := uniq[:0:0]
	for _, i := range uniq {
		p := patterns[i]
		if len(p) == 0 {
			results[i] = emptyPatternResult(s.textLen, limits[i])
			continue
		}
		if err := s.checkPattern(p); err != nil {
			results[i].Err = err
			continue
		}
		work = append(work, i)
	}
	if len(work) > 0 {
		// Every shard answers the same sub-batch; per-item shard limits
		// over-fetch by maxPat-1 so discarding overlap-region starts still
		// leaves an exact global prefix (see FindAllLimitContext).
		subPats := make([][]byte, len(work))
		subLimits := make([]int, len(work))
		for k, i := range work {
			subPats[k] = patterns[i]
			if limits[i] > 0 {
				subLimits[k] = limits[i] + s.maxPat - 1
			}
		}
		shardWorkers := opts.Workers
		if shardWorkers <= 0 {
			shardWorkers = 1 // the fan-out below is the parallelism
		}
		shardOpts := BatchOptions{Limits: subLimits, Workers: shardWorkers}
		tr := trace.FromContext(ctx)
		qc := obs.FromContext(ctx)
		var kids []*trace.Trace
		if tr != nil {
			kids = make([]*trace.Trace, len(s.shards))
		}
		perShard := make([][]QueryResult, len(s.shards))
		errs := make([]error, len(s.shards))
		var wg sync.WaitGroup
		for si := range s.shards {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				sctx := ctx
				var sp trace.Span
				if tr != nil {
					kids[si] = trace.New()
					sctx = trace.NewContext(ctx, kids[si])
					sp = kids[si].Start(trace.StageShard)
				}
				leg := qc.StartLeg(si)
				rs, err := s.shards[si].QueryBatch(sctx, subPats, shardOpts)
				sp.End()
				var nodes int64
				var hits int
				for _, r := range rs {
					nodes += r.NodesChecked
					hits += len(r.Positions)
				}
				leg.End(nodes, hits, err, legStages(qc, kids, si))
				if err != nil {
					errs[si] = err
					return
				}
				perShard[si] = rs
			}(si)
		}
		wg.Wait()
		for si, kid := range kids {
			tr.Adopt(kid, si)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		msp := tr.Start(trace.StageMerge)
		last := len(s.shards) - 1
		for k, i := range work {
			var item QueryResult
			var out []int
			for si := range s.shards {
				r := perShard[si][k]
				item.NodesChecked += r.NodesChecked
				item.Truncated = item.Truncated || r.Truncated
				for _, pos := range r.Positions {
					if pos < s.shardSize || si == last {
						out = append(out, s.starts[si]+pos)
					}
				}
			}
			sort.Ints(out)
			if limits[i] > 0 && len(out) > limits[i] {
				out = out[:limits[i]]
				item.Truncated = true
			}
			item.Positions = out
			results[i] = item
		}
		msp.End()
	}
	for _, i := range uniq {
		if results[i].Err == nil {
			results[i].normalize()
		} else {
			results[i].Position = -1
		}
	}
	for i := range patterns {
		if dupOf[i] != i {
			results[i] = results[dupOf[i]]
		}
	}
	return results, nil
}

// Count returns the number of occurrences of p.
func (s *Sharded) Count(p []byte) (int, error) {
	return s.CountContext(context.Background(), p)
}

// CountContext returns the number of occurrences of p; equivalent to
// Query with KindCount.
func (s *Sharded) CountContext(ctx context.Context, p []byte) (int, error) {
	res, err := s.Query(ctx, p, QueryOptions{Kind: KindCount})
	return res.Count, err
}

// count is the KindCount engine. Each shard counts the occurrences
// that start in its own slice — overlap-region starts belong to the next
// shard, so the per-shard counts sum to the exact global count with no
// dedup merge. The scans stream: nothing per-occurrence is materialized.
// nodes sums the shards' work, as findAllLimit's NodesChecked does.
// The caller (Query) has already validated the pattern length.
func (s *Sharded) count(ctx context.Context, p []byte) (total int, nodes int64, err error) {
	if len(p) == 0 {
		return s.textLen + 1, 0, nil
	}
	tr := trace.FromContext(ctx)
	qc := obs.FromContext(ctx)
	var kids []*trace.Trace
	if tr != nil {
		kids = make([]*trace.Trace, len(s.shards))
	}
	counts := make([]int, len(s.shards))
	legNodes := make([]int64, len(s.shards))
	errs := make([]error, len(s.shards))
	last := len(s.shards) - 1
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx := ctx
			var sp trace.Span
			if tr != nil {
				kids[i] = trace.New()
				sctx = trace.NewContext(ctx, kids[i])
				sp = kids[i].Start(trace.StageShard)
			}
			maxStart := s.shardSize
			if i == last {
				maxStart = -1 // no overlap region after the final shard
			}
			leg := qc.StartLeg(i)
			counts[i], legNodes[i], errs[i] = s.shards[i].countPrefixContext(sctx, p, maxStart)
			sp.End()
			leg.End(legNodes[i], counts[i], errs[i], legStages(qc, kids, i))
		}(i)
	}
	wg.Wait()
	for i, kid := range kids {
		tr.Adopt(kid, i)
	}
	for i := range counts {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		total += counts[i]
		nodes += legNodes[i]
	}
	return total, nodes, nil
}

// legStages summarizes one shard goroutine's child trace for its
// shard-leg wide event. It runs before the post-barrier Adopt (Records
// copies under the child's lock), so the leg event carries the stage
// breakdown even though the records move to the parent afterwards.
// Events no sink reads get no breakdown.
func legStages(qc *obs.QueryCtx, kids []*trace.Trace, i int) []trace.StageSummary {
	if kids == nil || kids[i] == nil || !qc.Exporting() {
		return nil
	}
	return trace.Summarize(kids[i].Records())
}

// Stats aggregates the structural measurements of every shard: counts
// are summed, label maxima taken, and fan-out buckets merged. Length is
// the logical text length (shard overlaps excluded), so the sum of the
// shard Lengths exceeds it.
func (s *Sharded) Stats() Stats {
	agg := Stats{Length: s.textLen}
	for _, sh := range s.shards {
		st := sh.Stats()
		agg.RibCount += st.RibCount
		agg.ExtribCount += st.ExtribCount
		agg.MemoryBytes += st.MemoryBytes
		agg.MaxLEL = max(agg.MaxLEL, st.MaxLEL)
		agg.MaxPT = max(agg.MaxPT, st.MaxPT)
		agg.MaxPRT = max(agg.MaxPRT, st.MaxPRT)
		for len(agg.FanoutNodes) < len(st.FanoutNodes) {
			agg.FanoutNodes = append(agg.FanoutNodes, 0)
		}
		for i, n := range st.FanoutNodes {
			agg.FanoutNodes[i] += n
		}
	}
	return agg
}
