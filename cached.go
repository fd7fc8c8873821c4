package spine

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/spine-index/spine/internal/qgram"
	"github.com/spine-index/spine/internal/rescache"
	"github.com/spine-index/spine/internal/trace"
)

// CacheConfig tunes the Cached decorator.
type CacheConfig struct {
	// MaxBytes is the result cache's byte budget; <= 0 picks
	// rescache.DefaultMaxBytes (64 MiB). The budget covers an estimate of
	// each entry's footprint (pattern bytes + 8 bytes per position +
	// fixed overhead), not exact heap usage.
	MaxBytes int64
	// Shards is the cache's lock-shard count, rounded up to a power of
	// two; <= 0 derives it from MaxBytes (up to rescache.DefaultShards,
	// each with at least rescache.MinShardBytes of the budget). A
	// shard's slice of the budget bounds the largest answer it admits.
	Shards int
	// DisableNegFilter turns the q-gram negative filter off; by default
	// Cached builds one over the wrapped index's text, so that absent
	// patterns answer in O(|P|) with zero backbone work.
	DisableNegFilter bool
	// NegFilterQ is the filter's gram length; <= 0 picks one from the
	// text: the shortest q whose random-text q-gram diversity exceeds the
	// text's gram population (so most absent patterns contain an unseen
	// gram), clamped to [4, 16]. Patterns shorter than Q bypass the
	// filter.
	NegFilterQ int
	// NegFilterBits is the filter's bits-per-gram budget; <= 0 picks
	// qgram.DefaultNegFilterBits.
	NegFilterBits int
}

// CacheStats is a point-in-time view of a CachedQuerier's counters.
type CacheStats struct {
	// Hits counts requests (single queries and batch items) answered
	// from the pattern's cache entry, whichever kind of request put the
	// knowledge there; Misses counts requests that went to the index,
	// because the pattern had no entry or its entry did not determine
	// the answer. Negative-filter rejections consult no cache and count
	// in neither.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// ScanMisses counts the misses that cost a backbone scan: findall,
	// count and batch items for a pattern that occurs. The other misses
	// are pattern descents, three orders of magnitude cheaper, so this
	// — not the hit ratio — is what the cache's work saved turns on.
	ScanMisses int64 `json:"scanMisses"`
	// NegRejects counts queries the negative filter answered (pattern
	// definitely absent, no index work); NegFalsePos counts patterns the
	// filter passed that the index then proved absent — the filter's
	// false positives, each costing one ordinary scan.
	NegRejects  int64 `json:"negRejects"`
	NegFalsePos int64 `json:"negFalsePos"`
	// Entries, Bytes and Evictions describe cache occupancy; Epoch is the
	// invalidation epoch (see Invalidate).
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Evictions int64  `json:"evictions"`
	Epoch     uint64 `json:"epoch"`
	// NegFilterQ is the filter's gram length (0 when the filter is off);
	// NegFilterBytes its bit-array footprint.
	NegFilterQ     int   `json:"negFilterQ"`
	NegFilterBytes int64 `json:"negFilterBytes"`
}

// texter is the optional capability Cached uses to reach the indexed
// text for the negative filter; all three index flavors provide it.
type texter interface{ Text() []byte }

// maxPatterner is the optional capability bounding cacheable pattern
// length (Sharded indexes reject longer patterns with ErrPatternTooLong
// and the cache must not mask that).
type maxPatterner interface{ MaxPattern() int }

// unwrapper is the decorator-chain walk: capability discovery descends
// through wrappers to the concrete index.
type unwrapper interface{ Unwrap() Querier }

// capability resolves an optional interface on q, descending through
// Unwrap chains.
func capability[T any](q Querier) (T, bool) {
	for {
		if t, ok := q.(T); ok {
			return t, true
		}
		u, ok := q.(unwrapper)
		if !ok {
			var zero T
			return zero, false
		}
		q = u.Unwrap()
	}
}

// CachedQuerier decorates a Querier with a result cache and a q-gram
// negative filter, serving repeated (Zipf-skewed) workloads from memory
// and absent patterns in O(|P|). It intercepts exactly the
// Query/QueryBatch choke points, so every legacy shim on the underlying
// index is covered when callers route reads through the decorator.
//
// The cache holds one entry per pattern: what the index has said about
// it so far (see known). Every answer the index gives is folded into
// the entry, and a request of any kind, single or batch item, is served
// from it whenever it determines the index's answer exactly — a
// complete findall answers count, find and contains too. Under memory
// pressure, entries a pattern descent can rebuild go before entries
// that took a backbone scan (see package rescache).
//
// Cache entries never alias caller-visible slices: Positions is cloned
// on insert and again on every hit, so callers may mutate the results
// they receive without corrupting future cached answers.
//
// CachedQuerier is safe for concurrent use.
type CachedQuerier struct {
	inner   Querier
	cache   *rescache.Cache
	neg     atomic.Pointer[qgram.NegFilter]
	negSrc  texter // text source for filter (re)builds; nil = filter disabled
	negQ    int    // configured gram length; <= 0 re-picks per rebuild
	negBits int
	maxPat  int // longest cacheable pattern; 0 = unbounded

	hits        atomic.Int64
	misses      atomic.Int64
	scanMisses  atomic.Int64
	negRejects  atomic.Int64
	negFalsePos atomic.Int64
}

// Cached wraps q with a result cache and (unless disabled) a negative
// filter built over q's text. Building the filter needs the text: q (or
// something in its Unwrap chain) must provide Text() []byte, which
// Index, Compact and Sharded all do; wrap an opaque Querier with
// DisableNegFilter set.
func Cached(q Querier, cfg CacheConfig) (*CachedQuerier, error) {
	c := &CachedQuerier{
		inner: q,
		cache: rescache.New(rescache.Config{MaxBytes: cfg.MaxBytes, Shards: cfg.Shards}),
	}
	if mp, ok := capability[maxPatterner](q); ok {
		c.maxPat = mp.MaxPattern()
	}
	if !cfg.DisableNegFilter {
		tx, ok := capability[texter](q)
		if !ok {
			return nil, fmt.Errorf("spine: Cached negative filter needs Text() on the wrapped querier; set DisableNegFilter to wrap it without one")
		}
		c.negSrc = tx
		c.negQ = cfg.NegFilterQ
		c.negBits = cfg.NegFilterBits
		if err := c.RebuildNegFilter(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// RebuildNegFilter rebuilds the q-gram negative filter over the wrapped
// index's current text and swaps it in atomically, restoring the
// O(|P|) absent-pattern path after an Invalidate dropped it. It is a
// no-op on a decorator built with DisableNegFilter. The build scans
// the whole text: run it once per ingest batch, not per append.
func (c *CachedQuerier) RebuildNegFilter() error {
	if c.negSrc == nil {
		return nil
	}
	text := c.negSrc.Text()
	gramLen := c.negQ
	if gramLen <= 0 {
		gramLen = autoNegFilterQ(text)
	}
	neg, err := qgram.BuildNegFilter(text, gramLen, c.negBits)
	if err != nil {
		return err
	}
	c.neg.Store(neg)
	return nil
}

// autoNegFilterQ picks a gram length for a text: the shortest q with
// sigma^q >= 64n (sigma = distinct bytes observed), so a random absent
// pattern's grams are unlikely to all occur in the text, clamped to
// [4, 16]. Short-alphabet texts (DNA) land around 12 for megabase
// inputs; byte-diverse texts stay near the lower clamp.
func autoNegFilterQ(text []byte) int {
	var seen [256]bool
	sigma := 0
	for _, b := range text {
		if !seen[b] {
			seen[b] = true
			sigma++
		}
	}
	if sigma < 2 {
		return 4
	}
	target := uint64(len(text))*64 + 1
	q := 1
	pow := uint64(sigma)
	for pow < target && q < 16 {
		// Watch for overflow: sigma^q already covers any text length.
		if pow > target/uint64(sigma) {
			q++
			break
		}
		pow *= uint64(sigma)
		q++
	}
	if q < 4 {
		q = 4
	}
	return q
}

// cacheable reports whether this call goes through the cache/filter
// path at all; non-cacheable calls pass straight to the inner querier,
// preserving its semantics (empty-pattern expansion, ErrPatternTooLong,
// ErrBadQueryKind).
func (c *CachedQuerier) cacheable(p []byte, kind QueryKind) bool {
	if len(p) == 0 || kind > KindCount {
		return false
	}
	if c.maxPat > 0 && len(p) > c.maxPat {
		return false
	}
	return true
}

// unasked marks a known.first nobody has asked the index for yet.
const unasked = -2

// known is a cache entry: what the index has said about one pattern so
// far. Every engine answer for the pattern is folded in by learn, and
// answer serves any later request the contents determine. A stored
// known is immutable — learn works on a copy — so readers need no lock.
type known struct {
	first     int   // first occurrence offset; -1 absent; unasked
	count     int   // exact occurrence count; -1 not yet counted
	listed    bool  // list, limit and truncated hold a KindFindAll answer
	list      []int // its Positions, private to the cache
	limit     int   // the limit it was computed under (0 = none)
	truncated bool  // its Truncated
}

// complete reports that list is every occurrence: the engine said so,
// or a count since (or before) agrees with its length.
func (k *known) complete() bool {
	return k.listed && (!k.truncated || k.count == len(k.list))
}

// answer derives the engine's answer to (kind, limit) from what is
// known, reporting false when the contents do not determine it:
//
//	contains, find   first is known
//	count            count is known (counted, or the list is complete)
//	findall, limit   = the stored list's limit: the stored answer
//	                 < len(list): that prefix, Truncated
//	                 none or > len(list), list complete: the list
//
// The corner left out is a complete list of exactly limit occurrences
// under a different limit: there the engine's Truncated depends on
// where its scan stopped, so the engine is asked. An absent pattern is
// first -1, count 0 and the complete empty list: it answers everything.
// Positions is a fresh copy; the caller owns it.
func (k *known) answer(kind QueryKind, limit int) (QueryResult, bool) {
	res := QueryResult{Position: -1, Source: SourceCache}
	switch kind {
	case KindContains, KindFind:
		if k.first == unasked {
			return res, false
		}
		res.Found, res.Position = k.first >= 0, k.first
	case KindCount:
		if k.count < 0 {
			return res, false
		}
		res.Count, res.Found = k.count, k.count > 0
	case KindFindAll:
		n := len(k.list)
		switch {
		case !k.listed:
			return res, false
		case limit == k.limit:
			res.Truncated = k.truncated
		case limit > 0 && limit < n:
			n, res.Truncated = limit, true
		case k.complete() && (limit == 0 || limit > n):
		default:
			return res, false
		}
		res.Positions = append([]int(nil), k.list[:n]...)
		res.normalize()
	}
	return res, true
}

// learn returns k with the engine's answer res to (kind, limit) folded
// in. The list kept is the longer one, so the shorter of two racing
// findalls cannot displace the other.
func (k known) learn(kind QueryKind, limit int, res QueryResult) *known {
	switch {
	case !res.Found:
		return &known{first: -1, listed: true}
	case kind == KindCount:
		k.count = res.Count
	case kind == KindFindAll && (!k.listed || len(res.Positions) >= len(k.list)):
		k.listed, k.limit, k.truncated = true, limit, res.Truncated
		k.list = append([]int(nil), res.Positions...)
		if !res.Truncated {
			k.count = res.Count
		}
	}
	if kind != KindCount {
		k.first = res.Position
	}
	return &k
}

// scanned reports that k holds something only a backbone scan can
// recompute: occurrences beyond the first of a pattern that occurs.
func (k *known) scanned() bool { return k.count > 0 || len(k.list) > 0 }

// lookup answers (kind, limit) for p from its cache entry when the
// entry determines the answer, counting the hit or the miss.
func (c *CachedQuerier) lookup(p []byte, kind QueryKind, limit int) (QueryResult, bool) {
	if v, ok := c.cache.Get(rescache.Key(p)); ok {
		if res, ok := v.(*known).answer(kind, limit); ok {
			c.hits.Add(1)
			return res, true
		}
	}
	c.misses.Add(1)
	return QueryResult{}, false
}

// remember folds the engine's answer to a miss into p's entry, unless
// the cache has been invalidated since epoch was read. neg is the
// filter that passed p, for its false-positive count.
func (c *CachedQuerier) remember(p []byte, epoch uint64, neg *qgram.NegFilter, kind QueryKind, limit int, res QueryResult) {
	if neg != nil && !res.Found && len(p) >= neg.Q() {
		c.negFalsePos.Add(1)
	}
	if res.Found && kind >= KindFindAll {
		c.scanMisses.Add(1)
	}
	c.cache.Update(rescache.Key(p), epoch, func(old any) (any, int64, bool) {
		k := known{first: unasked, count: -1}
		if old != nil {
			k = *old.(*known)
		}
		nk := k.learn(kind, limit, res)
		// An estimate of the footprint: pattern bytes, 8 per position,
		// fixed overhead.
		return nk, int64(len(p)) + int64(len(nk.list))*8 + 96, nk.scanned()
	})
}

// Query implements Querier. Order of consultation: negative filter
// (definitive absence in O(|P|)), then the pattern's cache entry, then
// the wrapped index, whose answer is folded into the entry on the way
// out. The result's Source field records which layer answered.
func (c *CachedQuerier) Query(ctx context.Context, p []byte, opts QueryOptions) (QueryResult, error) {
	if opts.NoCache || !c.cacheable(p, opts.Kind) {
		return c.inner.Query(ctx, p, opts)
	}
	if err := ctx.Err(); err != nil {
		return QueryResult{Position: -1}, err
	}
	tr := trace.FromContext(ctx)
	neg := c.neg.Load()
	if neg != nil && len(p) >= neg.Q() {
		sp := tr.Start(trace.StageNegFilter)
		may := neg.MayContain(p)
		sp.End()
		if !may {
			c.negRejects.Add(1)
			return QueryResult{Position: -1, Source: SourceNegFilter}, nil
		}
	}
	limit := opts.effectiveLimit()
	// Read before the lookup: whatever the index says from here on is
	// stored only if no Invalidate intervenes.
	epoch := c.cache.Epoch()
	sp := tr.Start(trace.StageCache)
	res, ok := c.lookup(p, opts.Kind, limit)
	sp.End()
	if ok {
		return res, nil
	}
	res, err := c.inner.Query(ctx, p, opts)
	if err != nil {
		return res, err
	}
	c.remember(p, epoch, neg, opts.Kind, limit, res)
	res.Source = SourceScan
	return res, nil
}

// QueryBatch implements Querier, cache-aware: negative-filter
// rejections and items their cache entry determines are answered
// inline, and only the rest are forwarded to the wrapped index's batch
// engine — its single backbone scan then covers exactly the patterns
// that need index work. Per-item limits follow BatchOptions semantics;
// a batch item is a KindFindAll request and shares its pattern's entry
// with single queries of every kind.
func (c *CachedQuerier) QueryBatch(ctx context.Context, patterns [][]byte, opts BatchOptions) ([]QueryResult, error) {
	limits, err := opts.itemLimits(len(patterns))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]QueryResult, len(patterns))
	neg := c.neg.Load()
	epoch := c.cache.Epoch()
	var (
		missPats   [][]byte
		missLimits []int
		missIdx    []int
	)
	for i, p := range patterns {
		// Empty or overlong patterns are forwarded so the engine's own
		// semantics (empty-pattern expansion, per-item ErrPatternTooLong)
		// apply.
		if c.cacheable(p, KindFindAll) {
			if neg != nil && len(p) >= neg.Q() && !neg.MayContain(p) {
				c.negRejects.Add(1)
				results[i] = QueryResult{Position: -1, Source: SourceNegFilter}
				continue
			}
			if res, ok := c.lookup(p, KindFindAll, max(limits[i], 0)); ok {
				results[i] = res
				continue
			}
		}
		missPats = append(missPats, p)
		missLimits = append(missLimits, limits[i])
		missIdx = append(missIdx, i)
	}
	if len(missIdx) > 0 {
		sub, err := c.inner.QueryBatch(ctx, missPats, BatchOptions{Limits: missLimits, Workers: opts.Workers})
		if err != nil {
			return nil, err
		}
		for k, i := range missIdx {
			results[i] = sub[k]
			if sub[k].Err == nil && c.cacheable(patterns[i], KindFindAll) {
				c.remember(patterns[i], epoch, neg, KindFindAll, max(missLimits[k], 0), sub[k])
			}
		}
	}
	return results, nil
}

// Len implements Querier by delegation.
func (c *CachedQuerier) Len() int { return c.inner.Len() }

// Unwrap returns the wrapped querier, exposing its capabilities
// (Stats, MaximalMatchesContext, approximate search) to servers that
// discover them by type assertion through the Unwrap chain.
func (c *CachedQuerier) Unwrap() Querier { return c.inner }

// Invalidate makes every cached result stale in O(1) by bumping the
// cache epoch; stale entries are collected lazily, and an answer the
// index was still computing when the epoch moved is not stored. Call it
// whenever the underlying text changes (the live-ingest path). The
// negative filter is dropped at the same time: it was built over the
// old text, and a pattern occurring only in newly appended bytes
// carries grams the filter has never seen — keeping it would turn
// those into definitive (false) "absent" answers. Queries fall back
// to plain scans until RebuildNegFilter restores the fast-negative
// path.
func (c *CachedQuerier) Invalidate() {
	c.cache.BumpEpoch()
	c.neg.Store(nil)
}

// CacheStats returns the decorator's counters; serving telemetry polls
// this for the /metrics cache section and the spine_cache_* families.
func (c *CachedQuerier) CacheStats() CacheStats {
	cs := c.cache.Stats()
	s := CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		ScanMisses:  c.scanMisses.Load(),
		NegRejects:  c.negRejects.Load(),
		NegFalsePos: c.negFalsePos.Load(),
		Entries:     cs.Entries,
		Bytes:       cs.Bytes,
		Evictions:   cs.Evictions,
		Epoch:       cs.Epoch,
	}
	if neg := c.neg.Load(); neg != nil {
		s.NegFilterQ = neg.Q()
		s.NegFilterBytes = neg.SizeBytes()
	}
	return s
}
