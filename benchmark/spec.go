package main

import "strconv"

// The suite's names. BENCHMARK.json at the repo root repeats the
// workloads, the end-to-end metrics and the per-layer metrics measured
// in every traced run; TestBenchmarkJSONMatchesSpec keeps the two in
// step. Later issues refer to these names.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a caller of the system sees, with the share of
// the parent's median by which each may worsen before a change counts
// as a regression. fail_ratio is reported by every run (the "failed"
// and "attempted" fields of the result line) but is not listed: it is
// 0 on a healthy commit, and a relative bound on 0 means nothing — any
// failure fails the run.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"index_bytes_per_char", "B/char", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer lists the layer metrics every traced run measures: the
// request shares and server counters of the workload's own replay, then
// the layer probes (probes.go), which are the same for every workload.
var perLayer = []metricSpec{
	{"trace.overhead_pct", "%", "lower", 0},
	{"req.serve_share", "ratio", "lower", 0},
	{"req.cached_share", "ratio", "lower", 0},
	{"req.descent_share", "ratio", "lower", 0},
	{"req.scan_share", "ratio", "lower", 0},

	{"serve.self_us.p50", "us", "lower", 0},
	{"serve.self_us.p99", "us", "lower", 0},
	{"serve.contains.p50_ms", "ms", "lower", 0},
	{"serve.contains.p99_ms", "ms", "lower", 0},
	{"serve.find.p50_ms", "ms", "lower", 0},
	{"serve.find.p99_ms", "ms", "lower", 0},
	{"serve.findall.p50_ms", "ms", "lower", 0},
	{"serve.count.p50_ms", "ms", "lower", 0},
	{"serve.batch.p50_ms", "ms", "lower", 0},
	{"serve.cpu_ms_per_kop", "ms", "lower", 0},
	{"serve.bytes_out_per_op", "B", "lower", 0},
	{"serve.rejected_429", "count", "lower", 0},
	{"serve.errors_5xx", "count", "lower", 0},
	{"serve.wrong_answers", "count", "lower", 0},
	{"serve.obs_events_dropped", "count", "lower", 0},

	{"cached.hit_ratio", "ratio", "higher", 0},
	{"cached.negfilter_reject_ratio", "ratio", "higher", 0},
	{"cached.negfilter_falsepos", "count", "lower", 0},
	{"cached.evictions", "count", "lower", 0},
	{"cached.entries", "count", "higher", 0},
	{"cached.bytes", "B", "lower", 0},
	{"cached.hit_us.p50", "us", "lower", 0},
	{"cached.reject_us.p50", "us", "lower", 0},
	{"cached.miss_overhead_us.p50", "us", "lower", 0},
	{"cached.negfilter_build_ms", "ms", "lower", 0},
	{"cached.fit.hit_ratio", "ratio", "higher", 0},
	{"cached.fit.hit_us.p50", "us", "lower", 0},

	{"core.descent.us.p50", "us", "lower", 0},
	{"core.descent.us.p99", "us", "lower", 0},
	{"core.descent.absent_us.p50", "us", "lower", 0},
	{"core.descent.nodes_per_query", "count", "lower", 0},

	{"core.scan.short_ms.p50", "ms", "lower", 0},
	{"core.scan.long_ms.p50", "ms", "lower", 0},
	{"core.scan.long_ms.p90", "ms", "lower", 0},
	{"core.scan.ns_per_node", "ns", "lower", 0},
	{"core.scan.nodes_per_result", "count", "lower", 0},
	{"core.scan.limit10_ms.p50", "ms", "lower", 0},
	{"core.scan.arm.default.short_ms", "ms", "lower", 0},
	{"core.scan.arm.default.long_ms", "ms", "lower", 0},
	{"core.scan.arm.swar_seq.short_ms", "ms", "lower", 0},
	{"core.scan.arm.swar_seq.long_ms", "ms", "lower", 0},
	{"core.scan.arm.scalar_seq.short_ms", "ms", "lower", 0},
	{"core.scan.arm.scalar_seq.long_ms", "ms", "lower", 0},
	{"core.scan.arm.noskip_seq.short_ms", "ms", "lower", 0},
	{"core.scan.arm.noskip_seq.long_ms", "ms", "lower", 0},

	{"core.batch.ms.p50", "ms", "lower", 0},
	{"core.batch.amortization", "ratio", "higher", 0},
	{"core.batch.nodes_per_pattern", "count", "lower", 0},

	{"mapped.open_us.p50", "us", "lower", 0},
	{"mapped.open_verify_ms.p50", "ms", "lower", 0},
	{"mapped.heap_load_ms.p50", "ms", "lower", 0},
	{"mapped.first_query_ms", "ms", "lower", 0},
	{"mapped.readahead_issued", "count", "lower", 0},
	{"mapped.readahead_hits", "count", "higher", 0},
	{"mapped.readahead_hit_ratio", "ratio", "higher", 0},
	{"mapped.resident_mb", "MiB", "lower", 0},
	{"mapped.vs_heap_scan_ratio", "ratio", "lower", 0},

	{"core.build.append_mchars_per_s", "Mchar/s", "higher", 0},
	{"core.build.chunk_ms.p99", "ms", "lower", 0},
	{"core.build.freeze_ms", "ms", "lower", 0},
	{"core.build.save_ms", "ms", "lower", 0},
	{"core.build.ref_bytes_per_char", "B/char", "lower", 0},
	{"core.build.compact_bytes_per_char", "B/char", "lower", 0},

	{"sharded.build_s", "s", "lower", 0},
	{"sharded.find_us.p50", "us", "lower", 0},
	{"sharded.findall_ms.p50", "ms", "lower", 0},
	{"sharded.count_ms.p50", "ms", "lower", 0},
	{"sharded.vs_single_ratio", "ratio", "lower", 0},

	{"match.maximal_ms_per_kchar", "ms", "lower", 0},
	{"match.nodes_per_char", "count", "lower", 0},
}

// The run length BENCHMARK.json gives the driver, and the default of
// -seconds.
const runSeconds = 16

// defaultClients is the closed loop's connection count.
const defaultClients = 1

// Corpus: seqgen's "eco" parameters (the paper's E. coli stand-in).
const (
	corpusChars    = 3_500_000
	repeatFraction = 0.30
	meanRepeatLen  = 220
	mutationRate   = 0.02
	smokeDivide    = 20
)

// patternLens is the |P| ladder of the lookup and scan workloads. The
// scan kernels change regime between 12 and 16 on this corpus: at
// |P| <= 12 most blocks hold a candidate and the scan is dense
// (stitch-bound); from 16 up block-skip and SWAR reject most of the
// backbone.
var patternLens = []int{8, 12, 16, 24, 32, 48, 64}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// cacheBytes is spineserve's -cache-bytes, the one flag the serving
	// workloads set away from its default; 0 turns the cache layer off.
	cacheBytes int64
	// schedOps is how many operations the schedule holds: about twice
	// what the reference host completes in runSeconds, so a run stops on
	// time, not on an empty schedule. warmOps of them are sent untimed
	// first; a traced run replays traceOps.
	schedOps, warmOps, traceOps int
	gen                         func(g *generator, n int) []op
}

var workloads = []workload{
	{
		Name:     "lookup",
		Why:      "contains/find only: the engine does ~2 us of a ~45 us request, so the serve layer is the cost and scan and cache are bypassed",
		schedOps: 600_000, warmOps: 5_000, traceOps: 20_000,
		gen: genLookup,
	},
	{
		Name:     "scan",
		Why:      "count/findall of distinct patterns, cache off: the paper's isolated O(n) occurrence scan is >95% of the request, HTTP is noise",
		schedOps: 3_000, warmOps: 100, traceOps: 400,
		gen: genScan,
	},
	{
		Name:     "batch",
		Why:      "16 patterns per POST /v1/batch: the set-basis single backbone pass, which shares the scan layer but not its single-query code",
		schedOps: 1_500, warmOps: 60, traceOps: 200,
		gen: genBatch,
	},
	{
		Name:       "zipf",
		Why:        "Zipf(1.1) over a key space 8x the result cache plus 20% absent: the only workload the cache and negative filter answer",
		cacheBytes: 64 << 10,
		schedOps:   40_000, warmOps: 3_000, traceOps: 2_000,
		gen: genZipf,
	},
	{
		Name: "ingest",
		Why:  "library write path in a child process: online append, freeze, save, verified mapped open; no server, so serving changes must not move it",
		gen:  nil,
	},
}

// zipfKeys is the zipf workload's key space: distinct present 12-mers,
// about eight times what its 64 KiB result cache holds (~110 B an
// entry, contains and find sharing one). The cache is that small so
// that the warm-up fills it and the measured phase evicts steadily.
const (
	zipfKeys   = 4_096
	zipfS      = 1.1
	zipfKeyLen = 12
	zipfAbsLen = 20
)

// Ingest rounds: the corpus is appended in chunks, one operation each.
const (
	ingestChunk        = 8 << 10
	ingestRoundQueries = 32
	ingestMaxRounds    = 64
)

// serverArgs are the workload's spineserve flags beyond the image and
// the address.
func (w *workload) serverArgs() []string {
	return []string{"-cache-bytes", strconv.FormatInt(w.cacheBytes, 10)}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
