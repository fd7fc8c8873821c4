// Package trace explains individual SPINE queries. Whereas
// internal/telemetry aggregates populations (request counts, latency
// histograms), a Trace follows one query through its stages — backbone
// descent, rib and extrib chain walks, occurrence scanning, per-shard
// fan-out, result merging — recording a duration and the SPINE work
// counters (nodes checked, links followed, rib/extrib hops) for each.
// This is the per-query view of the paper's §4.1 accounting: it answers
// "where did THIS query's time go", not just "what does the p99 look
// like".
//
// Traces propagate by context. Query paths call FromContext once per
// query; when no trace is attached (the common case) that is a single
// context lookup and every Trace/Span method is a nil-safe no-op, so
// the hot path pays nothing beyond the lookup. When a trace is
// attached, spans cost one clock read at start and one at finish plus
// a short mutex-guarded append — acceptable for sampled queries and for
// the always-on slow-query forensics built on top (see SlowLog).
package trace

import (
	"context"
	"sync"
	"time"
)

// Stage tags name the query phases instrumented across the codebase.
// Stages carrying NodesChecked partition the query's total node count:
// summing Nodes over a trace's records reproduces the query's reported
// NodesChecked. Ribs/extribs records refine the descent (hop counters
// and time inside chain walks) and carry no Nodes of their own, so the
// partition is preserved.
const (
	// StageDescend is the valid-path walk of the pattern (§3): Nodes is
	// the number of pattern characters consumed, RibHops/ExtribHops the
	// cross-edge work done on the way.
	StageDescend = "descend"
	// StageRibs aggregates time spent in rib lookups during descent.
	StageRibs = "ribs"
	// StageExtribs aggregates time spent walking extrib chains during
	// descent.
	StageExtribs = "extribs"
	// StageOccurrences is the downstream backbone scan (§4): Nodes is
	// the number of backbone nodes scanned, Links the links followed.
	StageOccurrences = "occurrences"
	// StageStream is the matching-statistics streaming pass of the §4
	// complex matching operation; Nodes is the engine's Checked count.
	StageStream = "stream"
	// StageBatchScan is the shared backbone scan of a batch query (§4's
	// set-basis deferral taken literally: one sequential pass resolves
	// every pattern's occurrences). Nodes is the number of backbone nodes
	// scanned once for the whole batch, not per pattern.
	StageBatchScan = "batchscan"
	// StageShard brackets one shard's query during Sharded fan-out; the
	// record's Shard field holds the shard number.
	StageShard = "shard"
	// StageMerge is the Sharded merge: sorting, deduplicating and
	// truncating the per-shard hit lists.
	StageMerge = "merge"
	// StageCache is the result-cache lookup (and insert on miss) of a
	// Cached querier; it carries no Nodes — cache work is not index work.
	StageCache = "cache"
	// StageNegFilter is the q-gram negative-filter probe of a Cached
	// querier: O(|P|) bloom lookups, zero index nodes.
	StageNegFilter = "negfilter"
	// StageDisk aggregates disk-path activity of a mapped index during
	// a query: readahead windows issued ahead of the backbone scan and
	// range-cache hits. It carries zero Nodes — disk work augments a
	// scan stage without disturbing the NodesChecked partition.
	StageDisk = "disk"
)

// AllStages is the canonical list of stage tags. New Stage* constants
// must be added here too — the telemetry exposition, the wide-event
// schema and the stage-exhaustiveness test all iterate this list, and
// the test cross-checks it against the package's constant declarations
// so a stage cannot be added silently.
var AllStages = []string{
	StageDescend,
	StageRibs,
	StageExtribs,
	StageOccurrences,
	StageStream,
	StageBatchScan,
	StageShard,
	StageMerge,
	StageCache,
	StageNegFilter,
	StageDisk,
}

// Counters is the SPINE work done within one span.
type Counters struct {
	// Nodes counts index nodes examined — the §4.1 work metric. Summed
	// over a trace it equals the query's reported NodesChecked.
	Nodes int64 `json:"nodes"`
	// Links counts backbone links followed (occurrence scans, cursor
	// suffix-link hops).
	Links int64 `json:"links"`
	// RibHops counts rib lookups taken during descent.
	RibHops int64 `json:"ribHops"`
	// ExtribHops counts extrib-chain edges walked during descent.
	ExtribHops int64 `json:"extribHops"`
	// BlocksSkipped and BlocksScanned count skip-index decisions during
	// block-accelerated occurrence scans: whole backbone blocks rejected
	// by their block-max summary versus blocks scanned node by node.
	// Skipped blocks contribute no Nodes, which is the point — the
	// Nodes partition invariant above covers only work actually done.
	BlocksSkipped int64 `json:"blocksSkipped"`
	BlocksScanned int64 `json:"blocksScanned"`
	// WordsCompared counts 64-bit SWAR comparisons issued by the
	// word-parallel scan kernel: packed descent words, packed
	// block-admission probes, and the lane words per admitted block of
	// its candidate mask (16 a full compact block, 32 a reference one,
	// however many candidates it then yields). Zero under the scalar
	// kernel. Unlike Nodes it is kernel-dependent by design: it measures
	// machine ops spent, not index work covered.
	WordsCompared int64 `json:"wordsCompared"`
	// ReadaheadIssued and ReadaheadHits count scan readahead windows
	// issued to the storage layer versus windows already covered by the
	// range cache, when the index serves from disk (StageDisk). Both
	// are zero for memory-resident indexes.
	ReadaheadIssued int64 `json:"readaheadIssued,omitempty"`
	ReadaheadHits   int64 `json:"readaheadHits,omitempty"`
}

func (c *Counters) add(o Counters) {
	c.Nodes += o.Nodes
	c.Links += o.Links
	c.RibHops += o.RibHops
	c.ExtribHops += o.ExtribHops
	c.BlocksSkipped += o.BlocksSkipped
	c.BlocksScanned += o.BlocksScanned
	c.WordsCompared += o.WordsCompared
	c.ReadaheadIssued += o.ReadaheadIssued
	c.ReadaheadHits += o.ReadaheadHits
}

// Record is one finished span.
type Record struct {
	// Stage is one of the Stage* tags.
	Stage string `json:"stage"`
	// Shard is the shard number the work belongs to, or -1 when the
	// query did not run under a sharded fan-out.
	Shard int `json:"shard"`
	// Duration is the span's wall time.
	Duration time.Duration `json:"durationNs"`
	Counters
}

// Trace collects the spans of one query. It is safe for concurrent use:
// sharded fan-out records spans from many goroutines. The zero value of
// *Trace (nil) is a valid "tracing off" trace — every method no-ops.
type Trace struct {
	mu   sync.Mutex
	recs []Record
	// inline backs recs for the first few spans, so a trace is one
	// allocation for a typical unsharded query.
	inline [8]Record

	// Query identity and outcome, set by the serving layer for slow-query
	// forensics.
	endpoint     string
	requestID    string
	source       string
	pattern      Fingerprint
	nodesChecked int64
	nodesSet     bool
	truncated    bool
}

// New returns an empty trace.
func New() *Trace {
	t := &Trace{}
	t.recs = t.inline[:0]
	return t
}

type ctxKey struct{}

// NewContext returns a context carrying t. Query paths pick it up with
// FromContext; passing a nil t returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil when tracing is
// off for this query.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Span is an in-progress stage measurement. It is a value: callers keep
// it on the stack, fill in C, and call End. A Span from a nil Trace is
// inert.
type Span struct {
	t     *Trace
	stage string
	start time.Time
	// C is the span's work counters, filled by the instrumented code
	// before End.
	C Counters
}

// Start opens a span for stage. On a nil trace it returns an inert span
// without reading the clock.
func (t *Trace) Start(stage string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, stage: stage, start: time.Now()}
}

// End finishes the span and records it.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	s.t.Add(s.stage, time.Since(s.start), s.C)
}

// Add records a finished span directly, for callers that measured the
// duration themselves. No-op on a nil trace.
func (t *Trace) Add(stage string, d time.Duration, c Counters) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recs = append(t.recs, Record{Stage: stage, Shard: -1, Duration: d, Counters: c})
	t.mu.Unlock()
}

// Adopt merges a child trace's records into t, stamping shard on every
// record that is not already shard-attributed. Sharded fan-out gives
// each shard goroutine its own child trace (no lock contention during
// the parallel section) and adopts them after the barrier.
func (t *Trace) Adopt(child *Trace, shard int) {
	if t == nil || child == nil {
		return
	}
	child.mu.Lock()
	recs := child.recs
	child.recs = nil
	child.mu.Unlock()
	t.mu.Lock()
	for _, r := range recs {
		if r.Shard < 0 {
			r.Shard = shard
		}
		t.recs = append(t.recs, r)
	}
	t.mu.Unlock()
}

// Records returns a copy of the spans recorded so far.
func (t *Trace) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Record(nil), t.recs...)
}

// SetEndpoint labels the trace with the serving endpoint name.
func (t *Trace) SetEndpoint(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.endpoint = name
	t.mu.Unlock()
}

// SetRequestID labels the trace with the request's correlation id so
// slow-log entries join against exported wide events and log lines.
func (t *Trace) SetRequestID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.requestID = id
	t.mu.Unlock()
}

// SetSource records which serving layer answered the query (scan, cache
// or negfilter).
func (t *Trace) SetSource(src string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.source = src
	t.mu.Unlock()
}

// SetPattern fingerprints the query pattern (or /match body) for the
// slow-query log. The pattern itself is not retained.
func (t *Trace) SetPattern(p []byte) {
	if t == nil {
		return
	}
	t.SetFingerprint(FingerprintOf(p))
}

// SetFingerprint stamps an already computed pattern fingerprint, for
// callers that share one fingerprint with the wide event.
func (t *Trace) SetFingerprint(fp Fingerprint) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pattern = fp
	t.mu.Unlock()
}

// SetNodesChecked records the query's reported NodesChecked total. When
// unset, slow-log entries fall back to the sum over span counters.
func (t *Trace) SetNodesChecked(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nodesChecked, t.nodesSet = n, true
	t.mu.Unlock()
}

// SetTruncated records that the query's result was cut at a limit.
func (t *Trace) SetTruncated(v bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.truncated = v
	t.mu.Unlock()
}

// TotalNodes sums Nodes over every recorded span.
func (t *Trace) TotalNodes() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, r := range t.recs {
		n += r.Nodes
	}
	return n
}

// StageSummary aggregates a trace's records by (stage, shard) for the
// slow-query log's per-stage breakdown.
type StageSummary struct {
	Stage string `json:"stage"`
	// Shard is -1 for unsharded work.
	Shard      int   `json:"shard"`
	Spans      int64 `json:"spans"`
	DurationUs int64 `json:"durationUs"`
	Counters
}

// Summarize aggregates records by (stage, shard), preserving first-seen
// order. A trace holds a handful of (stage, shard) groups, so each
// record finds its group by a scan from the most recent one instead of
// through a map.
func Summarize(recs []Record) []StageSummary {
	if len(recs) == 0 {
		return nil
	}
	out := make([]StageSummary, 0, min(len(recs), len(AllStages)))
	for _, r := range recs {
		i := len(out) - 1
		for i >= 0 && (out[i].Stage != r.Stage || out[i].Shard != r.Shard) {
			i--
		}
		if i < 0 {
			i = len(out)
			out = append(out, StageSummary{Stage: r.Stage, Shard: r.Shard})
		}
		out[i].Spans++
		out[i].DurationUs += r.Duration.Microseconds()
		out[i].Counters.add(r.Counters)
	}
	return out
}
