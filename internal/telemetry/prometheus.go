package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) rendered from a
// Snapshot. The log2 histograms become cumulative `le` bucket series;
// microsecond latencies are exported in seconds per Prometheus
// convention. spinebench -load reuses PromWriter so a bench run's
// output diffs cleanly against a live scrape.

// PromContentType is the Content-Type for the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter incrementally renders metric families in the text
// exposition format. Errors are sticky: rendering continues no-op after
// the first write failure and Err reports it.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer rendering to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Family emits the HELP/TYPE header for a metric family. Call it once
// per name, before the family's samples. typ is counter, gauge,
// histogram or untyped.
func (p *PromWriter) Family(name, typ, help string) {
	if help != "" {
		p.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

// Label is one name/value pair; sample label sets are ordered slices so
// output is deterministic.
type Label struct{ Name, Value string }

// Sample emits one sample line.
func (p *PromWriter) Sample(name string, labels []Label, value float64) {
	p.printf("%s%s %s\n", name, renderLabels(labels), formatValue(value))
}

// Histogram emits a HistogramSnapshot as cumulative le-bucket series
// plus _sum and _count, under the family name (declare the family with
// type "histogram" first). scale converts observed units to the
// exported unit — 1e-6 for microsecond observations exported as
// seconds, 1 for unitless values. Bucket upper bounds are the
// histogram's inclusive log2 bounds (2^i - 1), scaled.
func (p *PromWriter) Histogram(name string, labels []Label, h HistogramSnapshot, scale float64) {
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		le := formatValue(float64(b.LE) * scale)
		p.Sample(name+"_bucket", append(append([]Label(nil), labels...), Label{"le", le}), float64(cum))
	}
	// A snapshot taken while writers are mid-Observe can have bucket
	// totals a hair ahead of Count; clamp so the series stays cumulative.
	total := h.Count
	if cum > total {
		total = cum
	}
	p.Sample(name+"_bucket", append(append([]Label(nil), labels...), Label{"le", "+Inf"}), float64(total))
	p.Sample(name+"_sum", labels, float64(h.Sum)*scale)
	p.Sample(name+"_count", labels, float64(total))
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: \, " and
// newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string: \ and newline.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a float sample value compactly: integral values
// without an exponent or trailing zeros, others in shortest form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the full registry snapshot.
func WritePrometheus(w io.Writer, s Snapshot) error {
	p := NewPromWriter(w)

	p.Family("spine_build_info", "gauge", "Build identity of the running binary; always 1, the labels carry the information.")
	p.Sample("spine_build_info", []Label{
		{"version", s.Build.Version},
		{"go_version", s.Build.GoVersion},
		{"commit", s.Build.Commit},
	}, 1)
	if s.ScanKernel.Kernel != "" {
		p.Family("spine_scan_kernel", "gauge", "Active scan kernel and compiled word-load ISA; always 1, the labels carry the information.")
		p.Sample("spine_scan_kernel", []Label{
			{"kernel", s.ScanKernel.Kernel},
			{"isa", s.ScanKernel.ISA},
		}, 1)
	}
	if s.Disk.Enabled {
		p.Family("spine_disk_open_mode", "gauge", "How the serving index was opened (mmap, readerat, or heap); always 1, the label carries the information.")
		p.Sample("spine_disk_open_mode", []Label{{"mode", s.Disk.Mode}}, 1)
		p.Family("spine_disk_open_seconds", "gauge", "Cold-open wall time of the serving index file.")
		p.Sample("spine_disk_open_seconds", nil, s.Disk.OpenSeconds)
		p.Family("spine_disk_file_bytes", "gauge", "On-disk size of the serving index image.")
		p.Sample("spine_disk_file_bytes", nil, float64(s.Disk.FileBytes))
		p.Family("spine_disk_mapped_bytes", "gauge", "Bytes of the index image currently memory-mapped.")
		p.Sample("spine_disk_mapped_bytes", nil, float64(s.Disk.MappedBytes))
		p.Family("spine_disk_resident_bytes", "gauge", "Bytes of the index image resident in memory (mincore for mappings).")
		p.Sample("spine_disk_resident_bytes", nil, float64(s.Disk.ResidentBytes))
		p.Family("spine_disk_warmed_bytes", "gauge", "Bytes touched by the open-time Link Table warmup.")
		p.Sample("spine_disk_warmed_bytes", nil, float64(s.Disk.WarmedBytes))
		p.Family("spine_disk_readahead_issued_total", "counter", "Scan readahead windows issued to the storage layer; each is synchronous page faults avoided by streaming ahead of the scan.")
		p.Sample("spine_disk_readahead_issued_total", nil, float64(s.Disk.ReadaheadIssued))
		p.Family("spine_disk_readahead_hits_total", "counter", "Scan readahead windows already covered by the range cache (no prefetch needed).")
		p.Sample("spine_disk_readahead_hits_total", nil, float64(s.Disk.ReadaheadHits))
		p.Family("spine_disk_readahead_bytes_total", "counter", "Bytes covered by issued readahead windows.")
		p.Sample("spine_disk_readahead_bytes_total", nil, float64(s.Disk.ReadaheadBytes))
		p.Family("spine_disk_rangecache_evicted_total", "counter", "Readahead ranges evicted from the range cache to stay in budget.")
		p.Sample("spine_disk_rangecache_evicted_total", nil, float64(s.Disk.RangeCacheEvicted))
	}
	p.Family("spine_process_start_time_seconds", "gauge", "Process start time as seconds since the unix epoch.")
	p.Sample("spine_process_start_time_seconds", nil, s.StartTimeUnix)

	p.Family("spine_uptime_seconds", "gauge", "Seconds since the registry was created.")
	p.Sample("spine_uptime_seconds", nil, s.UptimeSeconds)

	p.Family("spine_goroutines", "gauge", "Current goroutine count.")
	p.Sample("spine_goroutines", nil, float64(s.Runtime.Goroutines))
	p.Family("spine_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	p.Sample("spine_heap_alloc_bytes", nil, float64(s.Runtime.HeapAllocBytes))
	p.Family("spine_heap_sys_bytes", "gauge", "Heap memory obtained from the OS.")
	p.Sample("spine_heap_sys_bytes", nil, float64(s.Runtime.HeapSysBytes))
	p.Family("spine_heap_objects", "gauge", "Number of allocated heap objects.")
	p.Sample("spine_heap_objects", nil, float64(s.Runtime.HeapObjects))
	p.Family("spine_gc_cycles_total", "counter", "Completed GC cycles.")
	p.Sample("spine_gc_cycles_total", nil, float64(s.Runtime.GCCycles))
	p.Family("spine_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	p.Sample("spine_gc_pause_seconds_total", nil, s.Runtime.GCPauseTotalSeconds)
	p.Family("spine_gc_last_pause_seconds", "gauge", "Duration of the most recent GC pause.")
	p.Sample("spine_gc_last_pause_seconds", nil, s.Runtime.LastGCPauseSeconds)
	p.Family("spine_gc_cpu_fraction", "gauge", "Fraction of CPU time used by the GC since process start.")
	p.Sample("spine_gc_cpu_fraction", nil, s.Runtime.GCCPUFraction)

	endpoints := sortedKeys(s.Endpoints)
	p.Family("spine_http_requests_total", "counter", "Completed HTTP requests by endpoint.")
	for _, name := range endpoints {
		p.Sample("spine_http_requests_total", []Label{{"endpoint", name}}, float64(s.Endpoints[name].Requests))
	}
	p.Family("spine_http_errors_total", "counter", "Completed HTTP requests with error status, by endpoint and class.")
	for _, name := range endpoints {
		e := s.Endpoints[name]
		p.Sample("spine_http_errors_total", []Label{{"endpoint", name}, {"class", "4xx"}}, float64(e.Errors4xx))
		p.Sample("spine_http_errors_total", []Label{{"endpoint", name}, {"class", "5xx"}}, float64(e.Errors5xx))
	}
	p.Family("spine_http_rejected_total", "counter", "Requests shed with 429 by the concurrency limiter.")
	for _, name := range endpoints {
		p.Sample("spine_http_rejected_total", []Label{{"endpoint", name}}, float64(s.Endpoints[name].Rejected))
	}
	p.Family("spine_http_in_flight", "gauge", "Currently executing requests by endpoint.")
	for _, name := range endpoints {
		p.Sample("spine_http_in_flight", []Label{{"endpoint", name}}, float64(s.Endpoints[name].InFlight))
	}
	p.Family("spine_http_request_duration_seconds", "histogram", "Request latency by endpoint (log2 buckets).")
	for _, name := range endpoints {
		p.Histogram("spine_http_request_duration_seconds", []Label{{"endpoint", name}}, s.Endpoints[name].LatencyUs, 1e-6)
	}

	p.Family("spine_query_nodes_checked_total", "counter", "Cumulative index nodes examined (the paper's section 4.1 work metric).")
	p.Sample("spine_query_nodes_checked_total", nil, float64(s.Query.NodesChecked))
	p.Family("spine_query_occurrences_total", "counter", "Cumulative occurrence positions reported to clients.")
	p.Sample("spine_query_occurrences_total", nil, float64(s.Query.Occurrences))
	p.Family("spine_query_truncated_total", "counter", "Responses cut short by a result limit.")
	p.Sample("spine_query_truncated_total", nil, float64(s.Query.Truncated))
	p.Family("spine_query_pattern_length", "histogram", "Distribution of query pattern lengths in characters.")
	p.Histogram("spine_query_pattern_length", nil, s.Query.PatternLen, 1)

	// Cache families are emitted unconditionally — zeros when no cache is
	// configured — so dashboards and alerts never see a missing series.
	p.Family("spine_cache_hits_total", "counter", "Result-cache hits (query answered with zero index work).")
	p.Sample("spine_cache_hits_total", nil, float64(s.Cache.Hits))
	p.Family("spine_cache_misses_total", "counter", "Result-cache misses (query fell through to the index).")
	p.Sample("spine_cache_misses_total", nil, float64(s.Cache.Misses))
	p.Family("spine_cache_scan_misses_total", "counter", "Result-cache misses that ran a backbone occurrence scan (the rest are pattern descents).")
	p.Sample("spine_cache_scan_misses_total", nil, float64(s.Cache.ScanMisses))
	p.Family("spine_cache_entries", "gauge", "Live result-cache entries (may include stale entries pending lazy collection).")
	p.Sample("spine_cache_entries", nil, float64(s.Cache.Entries))
	p.Family("spine_cache_bytes", "gauge", "Estimated bytes charged against the result-cache budget.")
	p.Sample("spine_cache_bytes", nil, float64(s.Cache.Bytes))
	p.Family("spine_cache_evictions_total", "counter", "Result-cache entries evicted by the byte budget.")
	p.Sample("spine_cache_evictions_total", nil, float64(s.Cache.Evictions))
	p.Family("spine_cache_epoch", "gauge", "Result-cache invalidation epoch (bumps when the indexed text changes).")
	p.Sample("spine_cache_epoch", nil, float64(s.Cache.Epoch))
	p.Family("spine_negfilter_rejects_total", "counter", "Queries answered absent by the q-gram negative filter, with zero backbone work.")
	p.Sample("spine_negfilter_rejects_total", nil, float64(s.Cache.NegRejects))
	p.Family("spine_negfilter_falsepos_total", "counter", "Negative-filter passes the index then proved absent (each cost one ordinary scan).")
	p.Sample("spine_negfilter_falsepos_total", nil, float64(s.Cache.NegFalsePos))

	if hasCacheTraffic(s) {
		p.Family("spine_http_cache_hits_total", "counter", "Requests answered from the result cache or negative filter, by endpoint.")
		for _, name := range endpoints {
			p.Sample("spine_http_cache_hits_total", []Label{{"endpoint", name}}, float64(s.Endpoints[name].CacheHits))
		}
		p.Family("spine_http_cache_misses_total", "counter", "Requests that fell through to the index, by endpoint.")
		for _, name := range endpoints {
			p.Sample("spine_http_cache_misses_total", []Label{{"endpoint", name}}, float64(s.Endpoints[name].CacheMisses))
		}
	}

	p.Family("spine_batch_requests_total", "counter", "Batch query requests that reached the engine.")
	p.Sample("spine_batch_requests_total", nil, float64(s.Batch.Batches))
	p.Family("spine_batch_patterns_total", "counter", "Patterns submitted across all batch requests.")
	p.Sample("spine_batch_patterns_total", nil, float64(s.Batch.Patterns))
	p.Family("spine_batch_deduped_patterns_total", "counter", "Batch items answered by an identical in-batch twin.")
	p.Sample("spine_batch_deduped_patterns_total", nil, float64(s.Batch.Deduped))
	p.Family("spine_batch_rejected_items_total", "counter", "Batch items rejected individually (e.g. overlong patterns).")
	p.Sample("spine_batch_rejected_items_total", nil, float64(s.Batch.RejectedItems))
	p.Family("spine_batch_size", "histogram", "Distribution of patterns per batch request.")
	p.Histogram("spine_batch_size", nil, s.Batch.Size, 1)

	if len(s.Stages) > 0 {
		stages := sortedKeys(s.Stages)
		p.Family("spine_stage_spans_total", "counter", "Trace spans recorded per query stage.")
		for _, st := range stages {
			p.Sample("spine_stage_spans_total", []Label{{"stage", st}}, float64(s.Stages[st].Spans))
		}
		p.Family("spine_stage_duration_seconds_total", "counter", "Cumulative wall time per query stage.")
		for _, st := range stages {
			p.Sample("spine_stage_duration_seconds_total", []Label{{"stage", st}}, s.Stages[st].Seconds)
		}
		p.Family("spine_stage_nodes_checked_total", "counter", "Cumulative nodes checked per query stage.")
		for _, st := range stages {
			p.Sample("spine_stage_nodes_checked_total", []Label{{"stage", st}}, float64(s.Stages[st].Nodes))
		}
		p.Family("spine_stage_rib_hops_total", "counter", "Cumulative rib lookups per query stage.")
		for _, st := range stages {
			p.Sample("spine_stage_rib_hops_total", []Label{{"stage", st}}, float64(s.Stages[st].RibHops))
		}
		p.Family("spine_stage_extrib_hops_total", "counter", "Cumulative extrib-chain hops per query stage.")
		for _, st := range stages {
			p.Sample("spine_stage_extrib_hops_total", []Label{{"stage", st}}, float64(s.Stages[st].ExtribHops))
		}
		p.Family("spine_scan_blocks_skipped_total", "counter", "Backbone blocks rejected by the block-max skip index, per query stage.")
		for _, st := range stages {
			p.Sample("spine_scan_blocks_skipped_total", []Label{{"stage", st}}, float64(s.Stages[st].BlocksSkipped))
		}
		p.Family("spine_scan_blocks_scanned_total", "counter", "Backbone blocks scanned node by node during occurrence scans, per query stage.")
		for _, st := range stages {
			p.Sample("spine_scan_blocks_scanned_total", []Label{{"stage", st}}, float64(s.Stages[st].BlocksScanned))
		}
		p.Family("spine_scan_words_compared_total", "counter", "64-bit SWAR kernel comparisons (packed descent words, lane LEL tests, block-admission probes), per query stage.")
		for _, st := range stages {
			p.Sample("spine_scan_words_compared_total", []Label{{"stage", st}}, float64(s.Stages[st].WordsCompared))
		}
		p.Family("spine_stage_readahead_issued_total", "counter", "Disk readahead windows issued under scans, per query stage.")
		for _, st := range stages {
			p.Sample("spine_stage_readahead_issued_total", []Label{{"stage", st}}, float64(s.Stages[st].ReadaheadIssued))
		}
		p.Family("spine_stage_readahead_hits_total", "counter", "Disk readahead range-cache hits under scans, per query stage.")
		for _, st := range stages {
			p.Sample("spine_stage_readahead_hits_total", []Label{{"stage", st}}, float64(s.Stages[st].ReadaheadHits))
		}
	}

	if len(s.Shards) > 0 {
		shards := make([]int, 0, len(s.Shards))
		for i := range s.Shards {
			shards = append(shards, i)
		}
		sort.Ints(shards)
		p.Family("spine_shard_queries_total", "counter", "Fan-out query legs executed per shard.")
		for _, i := range shards {
			p.Sample("spine_shard_queries_total", []Label{{"shard", strconv.Itoa(i)}}, float64(s.Shards[i].Queries))
		}
		p.Family("spine_shard_duration_seconds_total", "counter", "Cumulative shard-leg wall time per shard.")
		for _, i := range shards {
			p.Sample("spine_shard_duration_seconds_total", []Label{{"shard", strconv.Itoa(i)}}, s.Shards[i].Seconds)
		}
		p.Family("spine_shard_nodes_checked_total", "counter", "Cumulative nodes checked per shard.")
		for _, i := range shards {
			p.Sample("spine_shard_nodes_checked_total", []Label{{"shard", strconv.Itoa(i)}}, float64(s.Shards[i].NodesChecked))
		}
	}

	return p.Err()
}

// WritePrometheus renders the registry's current state in Prometheus
// text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, r.Snapshot())
}

// hasCacheTraffic gates the per-endpoint cache families on a cache
// actually being wired (enabled, or counters somehow non-zero).
func hasCacheTraffic(s Snapshot) bool {
	return s.Cache.Enabled || s.Cache.Hits != 0 || s.Cache.Misses != 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
