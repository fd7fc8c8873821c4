// Package telemetry instruments the SPINE query path: lock-cheap
// per-endpoint request counters, log-scaled latency histograms,
// in-flight gauges, and aggregation of SPINE-specific query statistics
// (nodes checked, occurrences reported, pattern-length distribution —
// the §4.1 metrics of the paper). A Registry snapshots to a
// JSON-friendly struct served at /metrics and published via expvar.
//
// Everything is built on sync/atomic: recording on the hot path is a
// handful of uncontended atomic adds, no locks, no allocation.
package telemetry

import (
	"expvar"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic up/down gauge (e.g. in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Endpoint aggregates one HTTP endpoint's traffic.
type Endpoint struct {
	Requests  Counter   // completed requests, any status
	Errors4xx Counter   // completed with a 4xx status
	Errors5xx Counter   // completed with a 5xx status
	Rejected  Counter   // shed with 429 by the concurrency limiter
	InFlight  Gauge     // currently executing requests
	Latency   Histogram // request latency, microseconds
	// CacheHits and CacheMisses attribute result-cache outcomes to the
	// endpoint (a hit covers both cache hits and negative-filter
	// rejections: the request did no index work). Zero on servers
	// running without a cache.
	CacheHits   Counter
	CacheMisses Counter
}

// ObserveRequest records one completed request.
func (e *Endpoint) ObserveRequest(status int, d time.Duration) {
	e.Requests.Inc()
	switch {
	case status == 429:
		e.Rejected.Inc()
		e.Errors4xx.Inc()
	case status >= 500:
		e.Errors5xx.Inc()
	case status >= 400:
		e.Errors4xx.Inc()
	}
	e.Latency.ObserveDuration(d)
}

// QueryStats aggregates SPINE-specific query-path measurements across
// all endpoints.
type QueryStats struct {
	// NodesChecked is the cumulative number of index nodes examined —
	// the paper's §4.1 set-basis suffix processing metric.
	NodesChecked Counter
	// Occurrences is the cumulative number of occurrence positions
	// reported to clients.
	Occurrences Counter
	// Truncated counts responses cut short by a result limit.
	Truncated Counter
	// PatternLen is the distribution of query pattern lengths.
	PatternLen Histogram
}

// BatchStats aggregates the batched query pipeline: how many batches
// arrive, how many patterns they carry, and how much of that work the
// in-batch dedupe and per-item validation absorbed before the single
// backbone scan ran.
type BatchStats struct {
	// Batches counts batch requests that reached the engine.
	Batches Counter
	// Patterns counts items across all batches.
	Patterns Counter
	// Deduped counts items answered by an identical in-batch twin
	// (no extra descent, no extra scan work).
	Deduped Counter
	// RejectedItems counts items that failed individually (overlong
	// patterns) while the rest of their batch succeeded.
	RejectedItems Counter
	// Size is the distribution of patterns per batch.
	Size Histogram
}

// StageStats aggregates the query-path work attributed to one trace
// stage (descend, ribs, extribs, occurrences, shard, merge) across all
// traced queries — the population view of internal/trace's per-query
// spans.
type StageStats struct {
	// Spans counts spans recorded for this stage.
	Spans Counter
	// Nanos is the cumulative span wall time in nanoseconds.
	Nanos Counter
	// Nodes is the cumulative §4.1 nodes-checked count.
	Nodes Counter
	// RibHops and ExtribHops count cross-edge work during descents.
	RibHops    Counter
	ExtribHops Counter
	// BlocksSkipped and BlocksScanned count skip-index decisions during
	// block-accelerated occurrence scans (occurrences/batchscan stages).
	BlocksSkipped Counter
	BlocksScanned Counter
	// WordsCompared counts 64-bit SWAR kernel comparisons (packed descent
	// words, lane-parallel LEL tests, block-admission probes); zero when
	// queries run the scalar kernel.
	WordsCompared Counter
	// ReadaheadIssued and ReadaheadHits count disk readahead windows
	// issued under scans versus range-cache hits; zero unless the index
	// serves from a mapped file (the "disk" stage).
	ReadaheadIssued Counter
	ReadaheadHits   Counter
}

// ShardStats aggregates one shard's share of fan-out queries, making
// hot shards visible (Sharded sums NodesChecked across shards in its
// results; attribution lives here).
type ShardStats struct {
	// Queries counts fan-out legs executed against the shard.
	Queries Counter
	// Nanos is the cumulative shard-leg wall time in nanoseconds.
	Nanos Counter
	// NodesChecked is the shard's cumulative §4.1 work.
	NodesChecked Counter
}

// CacheSnapshot is a point-in-time copy of the serving layer's result
// cache and negative filter, polled at snapshot time from the cache
// owner (see SetCacheSource). Enabled distinguishes "no cache
// configured" from "cache configured, all counters still zero".
type CacheSnapshot struct {
	Enabled bool  `json:"enabled"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// ScanMisses counts the misses that ran a backbone scan (findall,
	// count or batch item of a pattern that occurs) — milliseconds each,
	// where the other misses are microsecond descents.
	ScanMisses int64 `json:"scanMisses"`
	// NegRejects counts queries answered by the q-gram negative filter
	// (pattern definitely absent, zero index work); NegFalsePos counts
	// filter passes the index then proved absent.
	NegRejects  int64 `json:"negRejects"`
	NegFalsePos int64 `json:"negFalsePos"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	Evictions   int64 `json:"evictions"`
	// Epoch is the cache's invalidation epoch; it increments when the
	// indexed text changes.
	Epoch uint64 `json:"epoch"`
	// NegFilterQ is the filter's gram length (0 = filter off);
	// NegFilterBytes its bit-array footprint.
	NegFilterQ     int   `json:"negFilterQ"`
	NegFilterBytes int64 `json:"negFilterBytes"`
}

// BuildInfo identifies the running binary, read once from the module
// metadata the Go linker embeds (runtime/debug.ReadBuildInfo). It
// becomes the spine_build_info Prometheus gauge, so a fleet dashboard
// can tell which version each replica runs without shelling in.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
	Commit    string `json:"commit"`
}

// readBuildInfo extracts the binary's identity; fields the build didn't
// stamp come back as "unknown" so the gauge's label set stays stable.
func readBuildInfo() BuildInfo {
	b := BuildInfo{Version: "unknown", GoVersion: runtime.Version(), Commit: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		b.Version = v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			b.Commit = s.Value
		}
	}
	return b
}

// DiskSnapshot is the disk-serving state a mapped index reports at
// snapshot time: how the index was opened and how the readahead /
// range-cache path is doing. It becomes the spine_disk_* metric
// families. The serving layer registers a source (SetDiskSource) so
// telemetry does not import the index packages.
type DiskSnapshot struct {
	// Enabled marks that a disk source is registered.
	Enabled bool `json:"enabled,omitempty"`
	// Mode is the open mode: "mmap", "readerat", or "heap".
	Mode string `json:"mode,omitempty"`
	// FileBytes / MappedBytes / ResidentBytes / WarmedBytes describe the
	// image: on-disk size, mapped extent, bytes currently resident (the
	// page-cache footprint for mmap mode), and bytes touched by warmup.
	FileBytes     int64 `json:"fileBytes,omitempty"`
	MappedBytes   int64 `json:"mappedBytes,omitempty"`
	ResidentBytes int64 `json:"residentBytes,omitempty"`
	WarmedBytes   int64 `json:"warmedBytes,omitempty"`
	// ReadaheadIssued / ReadaheadHits / ReadaheadBytes count scan
	// readahead windows issued, range-cache hits, and bytes prefetched;
	// issued windows approximate page faults avoided by streaming.
	ReadaheadIssued int64 `json:"readaheadIssued,omitempty"`
	ReadaheadHits   int64 `json:"readaheadHits,omitempty"`
	ReadaheadBytes  int64 `json:"readaheadBytes,omitempty"`
	// RangeCacheEvicted counts readahead ranges dropped to budget.
	RangeCacheEvicted int64 `json:"rangeCacheEvicted,omitempty"`
	// OpenSeconds is the cold-open wall time.
	OpenSeconds float64 `json:"openSeconds,omitempty"`
}

// ScanKernelInfo identifies the scan kernel configuration a server
// runs: the selected kernel ("swar" or "scalar") and the compiled-in
// word-load ISA ("amd64" or "generic"). It becomes the
// spine_scan_kernel info gauge, following the spine_build_info model.
// The serving layer reports it (SetScanKernelInfo) so telemetry does
// not import the engine.
type ScanKernelInfo struct {
	Kernel string `json:"kernel,omitempty"`
	ISA    string `json:"isa,omitempty"`
}

// Registry is the process-wide metric store for a query service.
type Registry struct {
	start time.Time
	build BuildInfo
	Query QueryStats
	Batch BatchStats

	// cacheSource, when set, is polled at snapshot time for the result
	// cache's counters; the cache owns its own atomics, the registry
	// only reads them.
	cacheSource atomic.Pointer[func() CacheSnapshot]

	// scanInfo, when set, labels snapshots with the active scan kernel.
	scanInfo atomic.Pointer[ScanKernelInfo]

	// diskSource, when set, is polled at snapshot time for the mapped
	// index's disk-path counters (readahead, residency).
	diskSource atomic.Pointer[func() DiskSnapshot]

	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	stages    map[string]*StageStats
	shards    map[int]*ShardStats
}

// SetCacheSource registers the function Snapshot polls for cache
// counters. Pass the closure once at server construction; a nil source
// reports a disabled cache.
func (r *Registry) SetCacheSource(src func() CacheSnapshot) {
	if src == nil {
		r.cacheSource.Store(nil)
		return
	}
	r.cacheSource.Store(&src)
}

// SetDiskSource registers the function Snapshot polls for disk-serving
// counters. Pass the closure once at server construction; a nil source
// reports no disk path.
func (r *Registry) SetDiskSource(src func() DiskSnapshot) {
	if src == nil {
		r.diskSource.Store(nil)
		return
	}
	r.diskSource.Store(&src)
}

// SetScanKernelInfo records the scan kernel configuration reported in
// snapshots and the spine_scan_kernel gauge. Call it at server
// construction and again if the kernel is flipped at runtime.
func (r *Registry) SetScanKernelInfo(info ScanKernelInfo) {
	r.scanInfo.Store(&info)
}

// NewRegistry returns an empty registry; the uptime clock starts now.
func NewRegistry() *Registry {
	return &Registry{
		start:     time.Now(),
		build:     readBuildInfo(),
		endpoints: make(map[string]*Endpoint),
		stages:    make(map[string]*StageStats),
		shards:    make(map[int]*ShardStats),
	}
}

// Endpoint returns the named endpoint's metrics, creating them on first
// use. Lookups after creation take only an RLock.
func (r *Registry) Endpoint(name string) *Endpoint {
	r.mu.RLock()
	e := r.endpoints[name]
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.endpoints[name]; e == nil {
		e = &Endpoint{}
		r.endpoints[name] = e
	}
	return e
}

// Stage returns the named stage's metrics, creating them on first use.
func (r *Registry) Stage(name string) *StageStats {
	r.mu.RLock()
	s := r.stages[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.stages[name]; s == nil {
		s = &StageStats{}
		r.stages[name] = s
	}
	return s
}

// Shard returns shard i's metrics, creating them on first use.
func (r *Registry) Shard(i int) *ShardStats {
	r.mu.RLock()
	s := r.shards[i]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.shards[i]; s == nil {
		s = &ShardStats{}
		r.shards[i] = s
	}
	return s
}

// EndpointSnapshot is a point-in-time copy of one endpoint's metrics.
type EndpointSnapshot struct {
	Requests    int64             `json:"requests"`
	Errors4xx   int64             `json:"errors4xx"`
	Errors5xx   int64             `json:"errors5xx"`
	Rejected    int64             `json:"rejected"`
	InFlight    int64             `json:"inFlight"`
	CacheHits   int64             `json:"cacheHits"`
	CacheMisses int64             `json:"cacheMisses"`
	LatencyUs   HistogramSnapshot `json:"latencyUs"`
}

// RuntimeSnapshot captures the Go runtime's health alongside the query
// metrics, so /metrics answers "is it us or the GC" without a pprof
// round-trip. It is read at snapshot time from runtime.ReadMemStats.
type RuntimeSnapshot struct {
	Goroutines          int     `json:"goroutines"`
	HeapAllocBytes      uint64  `json:"heapAllocBytes"`
	HeapSysBytes        uint64  `json:"heapSysBytes"`
	HeapObjects         uint64  `json:"heapObjects"`
	NextGCBytes         uint64  `json:"nextGcBytes"`
	GCCycles            uint32  `json:"gcCycles"`
	GCPauseTotalSeconds float64 `json:"gcPauseTotalSeconds"`
	LastGCPauseSeconds  float64 `json:"lastGcPauseSeconds"`
	GCCPUFraction       float64 `json:"gcCpuFraction"`
}

// StageSnapshot is a point-in-time copy of one stage's metrics.
type StageSnapshot struct {
	Spans           int64   `json:"spans"`
	Seconds         float64 `json:"seconds"`
	Nodes           int64   `json:"nodes"`
	RibHops         int64   `json:"ribHops"`
	ExtribHops      int64   `json:"extribHops"`
	BlocksSkipped   int64   `json:"blocksSkipped"`
	BlocksScanned   int64   `json:"blocksScanned"`
	WordsCompared   int64   `json:"wordsCompared"`
	ReadaheadIssued int64   `json:"readaheadIssued,omitempty"`
	ReadaheadHits   int64   `json:"readaheadHits,omitempty"`
}

// ShardSnapshot is a point-in-time copy of one shard's metrics.
type ShardSnapshot struct {
	Queries      int64   `json:"queries"`
	Seconds      float64 `json:"seconds"`
	NodesChecked int64   `json:"nodesChecked"`
}

// Snapshot is a point-in-time copy of the whole registry, shaped for
// JSON encoding at /metrics.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// StartTimeUnix is the process start (registry creation) as unix
	// seconds — the spine_process_start_time_seconds gauge.
	StartTimeUnix float64                     `json:"startTimeUnix"`
	Build         BuildInfo                   `json:"build"`
	ScanKernel    ScanKernelInfo              `json:"scanKernel"`
	Runtime       RuntimeSnapshot             `json:"runtime"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Query         QuerySnapshot               `json:"query"`
	Batch         BatchSnapshot               `json:"batch"`
	Cache         CacheSnapshot               `json:"cache"`
	Disk          DiskSnapshot                `json:"disk,omitempty"`
	Stages        map[string]StageSnapshot    `json:"stages,omitempty"`
	Shards        map[int]ShardSnapshot       `json:"shards,omitempty"`
}

// QuerySnapshot is the snapshot of QueryStats.
type QuerySnapshot struct {
	NodesChecked int64             `json:"nodesChecked"`
	Occurrences  int64             `json:"occurrences"`
	Truncated    int64             `json:"truncated"`
	PatternLen   HistogramSnapshot `json:"patternLen"`
}

// BatchSnapshot is the snapshot of BatchStats.
type BatchSnapshot struct {
	Batches       int64             `json:"batches"`
	Patterns      int64             `json:"patterns"`
	Deduped       int64             `json:"deduped"`
	RejectedItems int64             `json:"rejectedItems"`
	Size          HistogramSnapshot `json:"size"`
}

// Snapshot copies the registry's current state. The uptime and runtime
// stats are read in the same instant as the counters (uptime from the
// monotonic clock), so one scrape is internally consistent: GC pause
// totals, goroutine counts and query work all describe the same moment.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	eps := make(map[string]*Endpoint, len(r.endpoints))
	for name, e := range r.endpoints {
		eps[name] = e
	}
	stages := make(map[string]*StageStats, len(r.stages))
	for name, st := range r.stages {
		stages[name] = st
	}
	shards := make(map[int]*ShardStats, len(r.shards))
	for i, sh := range r.shards {
		shards[i] = sh
	}
	r.mu.RUnlock()
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		StartTimeUnix: float64(r.start.UnixNano()) / 1e9,
		Build:         r.build,
		Runtime:       readRuntime(),
		Endpoints:     make(map[string]EndpointSnapshot, len(eps)),
		Query: QuerySnapshot{
			NodesChecked: r.Query.NodesChecked.Value(),
			Occurrences:  r.Query.Occurrences.Value(),
			Truncated:    r.Query.Truncated.Value(),
			PatternLen:   r.Query.PatternLen.Snapshot(),
		},
		Batch: BatchSnapshot{
			Batches:       r.Batch.Batches.Value(),
			Patterns:      r.Batch.Patterns.Value(),
			Deduped:       r.Batch.Deduped.Value(),
			RejectedItems: r.Batch.RejectedItems.Value(),
			Size:          r.Batch.Size.Snapshot(),
		},
	}
	if src := r.cacheSource.Load(); src != nil {
		s.Cache = (*src)()
		s.Cache.Enabled = true
	}
	if info := r.scanInfo.Load(); info != nil {
		s.ScanKernel = *info
	}
	if src := r.diskSource.Load(); src != nil {
		s.Disk = (*src)()
		s.Disk.Enabled = true
	}
	for name, e := range eps {
		s.Endpoints[name] = EndpointSnapshot{
			Requests:    e.Requests.Value(),
			Errors4xx:   e.Errors4xx.Value(),
			Errors5xx:   e.Errors5xx.Value(),
			Rejected:    e.Rejected.Value(),
			InFlight:    e.InFlight.Value(),
			CacheHits:   e.CacheHits.Value(),
			CacheMisses: e.CacheMisses.Value(),
			LatencyUs:   e.Latency.Snapshot(),
		}
	}
	if len(stages) > 0 {
		s.Stages = make(map[string]StageSnapshot, len(stages))
		for name, st := range stages {
			s.Stages[name] = StageSnapshot{
				Spans:           st.Spans.Value(),
				Seconds:         float64(st.Nanos.Value()) / 1e9,
				Nodes:           st.Nodes.Value(),
				RibHops:         st.RibHops.Value(),
				ExtribHops:      st.ExtribHops.Value(),
				BlocksSkipped:   st.BlocksSkipped.Value(),
				BlocksScanned:   st.BlocksScanned.Value(),
				WordsCompared:   st.WordsCompared.Value(),
				ReadaheadIssued: st.ReadaheadIssued.Value(),
				ReadaheadHits:   st.ReadaheadHits.Value(),
			}
		}
	}
	if len(shards) > 0 {
		s.Shards = make(map[int]ShardSnapshot, len(shards))
		for i, sh := range shards {
			s.Shards[i] = ShardSnapshot{
				Queries:      sh.Queries.Value(),
				Seconds:      float64(sh.Nanos.Value()) / 1e9,
				NodesChecked: sh.NodesChecked.Value(),
			}
		}
	}
	return s
}

// readRuntime samples the Go runtime. ReadMemStats briefly
// stops-the-world; scrape-rate calls (seconds apart) make that cost
// irrelevant, but it should not be called per-request.
func readRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := RuntimeSnapshot{
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      ms.HeapAlloc,
		HeapSysBytes:        ms.HeapSys,
		HeapObjects:         ms.HeapObjects,
		NextGCBytes:         ms.NextGC,
		GCCycles:            ms.NumGC,
		GCPauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
		GCCPUFraction:       ms.GCCPUFraction,
	}
	if ms.NumGC > 0 {
		rs.LastGCPauseSeconds = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	return rs
}

// PublishExpvar exposes the registry under the given expvar name
// (visible at /debug/vars). Publishing the same name twice panics in
// expvar, so reuse is guarded: a second call with a taken name is a
// no-op.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
