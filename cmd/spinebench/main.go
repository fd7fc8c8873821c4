// Command spinebench regenerates the paper's evaluation tables and
// figures (see DESIGN.md §2 for the experiment index).
//
// Usage:
//
//	spinebench -exp all -divide 100        # every experiment at 1/100 scale
//	spinebench -exp fig6,table5 -divide 16 # selected experiments, larger
//	spinebench -exp fig7 -divide 1 -sync   # paper-scale disk build, O_SYNC
//
// It doubles as a load generator for a running spineserve instance,
// replaying a weighted query mix and reporting per-endpoint latency
// histograms (the client-side view of the server's /metrics):
//
//	spinebench -load http://localhost:8080 -load-n 10000 -load-c 16 \
//	    -load-mix contains:5,findall:2,count:1 -load-seq eco -load-plen 12
//
// With -load-prom the per-endpoint results are also written in
// Prometheus text exposition format (spinebench_* families), ready to
// diff against the server's /metrics?format=prom. Every generated
// request carries a deterministic W3C traceparent and X-Request-Id, and
// (unless -load-check-obs=false) the server's wide-event counters are
// cross-checked after the run: one event per request, zero dropped.
//
// With -batch N the load mode instead compares one POST /batch of N
// patterns against N sequential GET /findall calls (same patterns, same
// limits, counts cross-checked) and optionally writes the JSON report:
//
//	spinebench -load http://localhost:8080 -batch 16 -batch-rounds 30 \
//	    -batch-out BENCH_batch.json
//
// With -scan it instead benchmarks the in-process occurrence scan:
// the scalar §4 node-by-node pass versus the block-max skip index
// versus the word-parallel SWAR kernel, on both layouts, positions
// cross-checked against the scalar oracle every round. -kernel selects
// the accelerated arms (all, swar or scalar):
//
//	spinebench -scan -scan-seq eco -divide 3 -kernel all -scan-out BENCH_scan.json
//
// With -cache it benchmarks the serving cache layer in-process: a
// Zipf(s=1.1) hot-pattern stream against the raw sharded index versus
// the Cached decorator, plus absent-pattern p50 latency with and
// without the q-gram negative filter, every cached answer
// cross-checked against the raw index:
//
//	spinebench -cache -cache-seq eco -divide 10 -cache-out BENCH_cache.json
//
// With -disk it benchmarks serving straight from the on-disk compact
// image: cold-open latency of the heap deserializer versus the
// zero-copy mmap open and the portable io.ReaderAt fallback, a
// differential query pass against the heap reference, and a
// full-backbone occurrence sweep under a small readahead range-cache
// budget (the larger-than-RAM streaming regime):
//
//	spinebench -disk -disk-seq cel -divide 1 -disk-out BENCH_disk.json
//
// With -obs it benchmarks the wide-event observability layer
// in-process: the same traced findall queries with the exporter off
// versus on (JSONL sink), reporting the query-path overhead and
// validating that every exported line decodes and nothing was dropped:
//
//	spinebench -obs -obs-seq eco -divide 10 -obs-out BENCH_obs.json
//
// At -divide 1 the corpus matches the paper's sequence lengths (eco 3.5M,
// cel 15.5M, hc21 28.5M, hc19 57.5M characters); expect multi-hour runs
// for the disk experiments with -sync.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/spine-index/spine/internal/bench"
	"github.com/spine-index/spine/internal/bench/cachebench"
	"github.com/spine-index/spine/internal/bench/diskbench"
	"github.com/spine-index/spine/internal/bench/obsbench"
	"github.com/spine-index/spine/internal/pager"
	"github.com/spine-index/spine/internal/seqgen"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiment ids: table2,table3,table4,fig6,table5,table6,fig7,fig8,table7,size,protein,policy,filter,linear,latency or all")
		divide   = flag.Int("divide", 100, "scale divisor for sequence lengths (1 = paper scale)")
		sync     = flag.Bool("sync", false, "use synchronous page writes for disk experiments (paper methodology; slow)")
		fraction = flag.Float64("buffer", 0.1, "disk buffer pool size as a fraction of the index footprint")

		loadURL  = flag.String("load", "", "spineserve base URL; switches to load-generator mode")
		loadN    = flag.Int("load-n", 1000, "load mode: total requests")
		loadC    = flag.Int("load-c", 8, "load mode: concurrent workers")
		loadMix  = flag.String("load-mix", "", "load mode: weighted mix, e.g. contains:5,findall:2 (default: built-in blend)")
		loadSeq  = flag.String("load-seq", "eco", "load mode: suite sequence to sample query patterns from")
		loadPlen = flag.Int("load-plen", 12, "load mode: sampled pattern length")
		loadTO   = flag.Duration("load-timeout", 30*time.Second, "load mode: per-request client timeout")
		loadProm = flag.String("load-prom", "", `load mode: also write Prometheus text metrics to this file ("-" = stdout)`)
		loadObs  = flag.Bool("load-check-obs", true, "load mode: cross-check the server's wide-event count against requests issued (skipped when the server has no obs layer; needs an otherwise idle server)")

		batchN      = flag.Int("batch", 0, "load mode: compare one /batch of N patterns vs N sequential /findall calls (0 = off)")
		batchRounds = flag.Int("batch-rounds", 20, "batch mode: measured rounds per mode")
		batchLimit  = flag.Int("batch-limit", 100, "batch mode: per-item result limit (0 = server default)")
		batchOut    = flag.String("batch-out", "", "batch mode: write the JSON comparison report to this file")

		scanMode   = flag.Bool("scan", false, "compare the scalar, block-skip and SWAR occurrence scans in-process")
		scanSeq    = flag.String("scan-seq", "eco", "scan mode: suite sequence to index")
		scanRounds = flag.Int("scan-rounds", 5, "scan mode: measured rounds per mode")
		scanKernel = flag.String("kernel", "all", "scan mode: accelerated arms to measure against the scalar oracle: all, swar or scalar")
		scanOut    = flag.String("scan-out", "", "scan mode: write the JSON comparison report to this file")

		cacheMode = flag.Bool("cache", false, "benchmark the serving cache + negative filter in-process")
		cacheSeq  = flag.String("cache-seq", "eco", "cache mode: suite sequence to index")
		cacheN    = flag.Int("cache-n", 20000, "cache mode: Zipf requests per mode")
		cacheZipf = flag.Float64("cache-zipf", 1.1, "cache mode: Zipf exponent of the hot-pattern stream")
		cacheOut  = flag.String("cache-out", "", "cache mode: write the JSON comparison report to this file")

		diskMode   = flag.Bool("disk", false, "benchmark cold-open modes and the streamed occurrence sweep over the on-disk compact image")
		diskSeq    = flag.String("disk-seq", "eco", "disk mode: suite sequence to index")
		diskRounds = flag.Int("disk-rounds", 3, "disk mode: cold opens per mode")
		diskRC     = flag.Int64("disk-rangecache", 1<<20, "disk mode: readahead range-cache byte budget for the sweep")
		diskOut    = flag.String("disk-out", "", "disk mode: write the JSON comparison report (BENCH_disk.json) to this file")

		obsMode = flag.Bool("obs", false, "benchmark the wide-event exporter's query-path overhead in-process")
		obsSeq  = flag.String("obs-seq", "eco", "obs mode: suite sequence to index")
		obsN    = flag.Int("obs-n", 2000, "obs mode: queries per arm")
		obsPlen = flag.Int("obs-plen", 4, "obs mode: sampled pattern length (short = occurrence-heavy queries)")
		obsOut  = flag.String("obs-out", "", "obs mode: write the JSON comparison report (BENCH_obs.json) to this file")
	)
	flag.Parse()
	if *obsMode {
		if err := runObsBench(*obsSeq, *divide, *obsN, *obsPlen, *obsOut); err != nil {
			fmt.Fprintln(os.Stderr, "spinebench:", err)
			os.Exit(1)
		}
		return
	}
	if *diskMode {
		if err := runDiskBench(*diskSeq, *divide, *diskRounds, *diskRC, *diskOut); err != nil {
			fmt.Fprintln(os.Stderr, "spinebench:", err)
			os.Exit(1)
		}
		return
	}
	if *cacheMode {
		if err := runCacheBench(*cacheSeq, *divide, *cacheN, *cacheZipf, *cacheOut); err != nil {
			fmt.Fprintln(os.Stderr, "spinebench:", err)
			os.Exit(1)
		}
		return
	}
	if *scanMode {
		if err := runScanBench(*scanSeq, *divide, *scanRounds, *scanKernel, *scanOut); err != nil {
			fmt.Fprintln(os.Stderr, "spinebench:", err)
			os.Exit(1)
		}
		return
	}
	if *loadURL != "" {
		if *batchN > 0 {
			if err := runBatchCompare(*loadURL, *batchN, *batchRounds, *batchLimit, *loadSeq, *loadPlen, *divide, *loadTO, *batchOut); err != nil {
				fmt.Fprintln(os.Stderr, "spinebench:", err)
				os.Exit(1)
			}
			return
		}
		if err := runLoad(*loadURL, *loadN, *loadC, *loadMix, *loadSeq, *loadPlen, *divide, *loadTO, *loadProm, *loadObs); err != nil {
			fmt.Fprintln(os.Stderr, "spinebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exps, *divide, *sync, *fraction); err != nil {
		fmt.Fprintln(os.Stderr, "spinebench:", err)
		os.Exit(1)
	}
}

// runLoad replays a query mix against a running spineserve and prints
// the per-endpoint latency table. With checkObs the server's wide-event
// counters are snapshotted around the run and the event delta must match
// the requests issued exactly, with zero drops — the end-to-end proof
// that every query produced its event and none were lost.
func runLoad(url string, n, workers int, mixSpec, seqName string, plen, divide int, timeout time.Duration, promPath string, checkObs bool) error {
	mix, err := parseMix(mixSpec)
	if err != nil {
		return err
	}
	c := bench.NewCorpus(divide)
	text, err := c.Get(seqName)
	if err != nil {
		return err
	}
	patterns := bench.SamplePatterns(text, 256, plen)
	if len(patterns) == 0 {
		return fmt.Errorf("cannot sample %d-char patterns from %s at divisor %d (%d chars)",
			plen, seqName, divide, len(text))
	}
	base := strings.TrimRight(url, "/")
	var before bench.ObsStats
	if checkObs {
		st, err := bench.FetchObsStats(base, timeout)
		if err != nil {
			return fmt.Errorf("obs pre-check: %w", err)
		}
		before = st
	}
	table, results, err := bench.RunLoad(bench.LoadConfig{
		BaseURL:     base,
		Patterns:    patterns,
		Mix:         mix,
		Requests:    n,
		Concurrency: workers,
		Timeout:     timeout,
	})
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if checkObs {
		if !before.Enabled {
			fmt.Println("obs check: server has no wide-event layer; skipped")
		} else {
			// Events are emitted after the response is written, so the
			// last few may land just after the client saw its reply; give
			// the counters a moment to settle before judging.
			var after bench.ObsStats
			for i := 0; i < 20; i++ {
				after, err = bench.FetchObsStats(base, timeout)
				if err != nil {
					return fmt.Errorf("obs post-check: %w", err)
				}
				if after.EmittedQuery-before.EmittedQuery >= int64(n) {
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
			events := after.EmittedQuery - before.EmittedQuery
			dropped := after.Dropped - before.Dropped
			fmt.Printf("obs check: %d wide events for %d requests, %d dropped\n", events, n, dropped)
			if events != int64(n) {
				return fmt.Errorf("obs check: server emitted %d query events for %d requests", events, n)
			}
			if dropped != 0 {
				return fmt.Errorf("obs check: exporter dropped %d events under load", dropped)
			}
		}
	}
	if promPath != "" {
		out := os.Stdout
		if promPath != "-" {
			f, err := os.Create(promPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := bench.WriteLoadPrometheus(out, results); err != nil {
			return err
		}
	}
	return nil
}

// runBatchCompare measures one /batch of n patterns against n
// sequential /findall calls and prints the comparison table; with
// outPath the JSON report (BENCH_batch.json format) is written too.
func runBatchCompare(url string, n, rounds, limit int, seqName string, plen, divide int, timeout time.Duration, outPath string) error {
	c := bench.NewCorpus(divide)
	text, err := c.Get(seqName)
	if err != nil {
		return err
	}
	patterns := bench.SamplePatterns(text, 256, plen)
	if len(patterns) == 0 {
		return fmt.Errorf("cannot sample %d-char patterns from %s at divisor %d (%d chars)",
			plen, seqName, divide, len(text))
	}
	table, report, err := bench.RunBatchCompare(bench.BatchCompareConfig{
		BaseURL:   strings.TrimRight(url, "/"),
		Patterns:  patterns,
		BatchSize: n,
		Rounds:    rounds,
		Limit:     limit,
		Timeout:   timeout,
	})
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runObsBench measures the wide-event exporter's query-path overhead on
// an in-process index (export off vs JSONL export on, same traced
// queries) and validates the JSONL output; with outPath the JSON report
// (BENCH_obs.json format) is written too.
func runObsBench(seqName string, divide, requests, plen int, outPath string) error {
	c := bench.NewCorpus(divide)
	table, report, err := obsbench.RunObsBench(c, obsbench.ObsBenchConfig{
		Sequence:   seqName,
		Requests:   requests,
		PatternLen: plen,
	})
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !report.JSONLValid {
		return fmt.Errorf("obs bench: JSONL export failed validation")
	}
	if report.Dropped != 0 {
		return fmt.Errorf("obs bench: exporter dropped %d events", report.Dropped)
	}
	return nil
}

// runScanBench compares the scalar, block-skip and SWAR occurrence
// scans on an in-process index over the given suite sequence and prints
// the comparison table; with outPath the JSON report (BENCH_scan.json
// format) is written too.
func runScanBench(seqName string, divide, rounds int, kernel, outPath string) error {
	c := bench.NewCorpus(divide)
	table, report, err := bench.RunScanBench(c, bench.ScanBenchConfig{
		Sequence: seqName,
		Rounds:   rounds,
		Kernel:   kernel,
	})
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runDiskBench measures cold opens of the saved compact image in every
// available mode plus the budgeted streaming sweep and prints the
// comparison table; with outPath the JSON report (BENCH_disk.json
// format) is written too.
func runDiskBench(seqName string, divide, rounds int, rangeCacheBytes int64, outPath string) error {
	c := bench.NewCorpus(divide)
	table, report, err := diskbench.RunDiskBench(c, diskbench.Config{
		Sequence:        seqName,
		Rounds:          rounds,
		RangeCacheBytes: rangeCacheBytes,
	})
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runCacheBench compares the raw sharded index against the serving
// cache (and the negative filter on absent patterns) over the given
// suite sequence and prints the comparison table; with outPath the
// JSON report (BENCH_cache.json format) is written too.
func runCacheBench(seqName string, divide, requests int, zipfS float64, outPath string) error {
	c := bench.NewCorpus(divide)
	table, report, err := cachebench.RunCacheBench(c, cachebench.CacheBenchConfig{
		Sequence: seqName,
		Requests: requests,
		ZipfS:    zipfS,
	})
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// parseMix parses "contains:5,findall:2" into mix entries; an empty spec
// selects the built-in default blend.
func parseMix(spec string) ([]bench.MixEntry, error) {
	if spec == "" {
		return nil, nil
	}
	var mix []bench.MixEntry
	for _, part := range strings.Split(spec, ",") {
		ep, ws, ok := strings.Cut(strings.TrimSpace(part), ":")
		w := 1
		if ok {
			n, err := strconv.Atoi(ws)
			if err != nil {
				return nil, fmt.Errorf("bad mix weight in %q", part)
			}
			w = n
		}
		mix = append(mix, bench.MixEntry{Endpoint: ep, Weight: w})
	}
	return mix, nil
}

func run(exps string, divide int, sync bool, fraction float64) error {
	c := bench.NewCorpus(divide)
	diskCfg := bench.DiskConfig{Sync: sync, BufferFraction: fraction, Policy: pager.TopRetention}

	want := map[string]bool{}
	all := exps == "all"
	for _, e := range strings.Split(exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	sel := func(id string) bool { return all || want[id] }

	type experiment struct {
		id  string
		run func() (bench.Table, error)
	}
	plan := []experiment{
		{"table2", func() (bench.Table, error) { return bench.Table2NodeContent(), nil }},
		{"table3", func() (bench.Table, error) { return bench.Table3LabelValues(c, seqgen.SuiteNames) }},
		{"table4", func() (bench.Table, error) { return bench.Table4RibDistribution(c, seqgen.SuiteNames) }},
		{"fig6", func() (bench.Table, error) { return bench.Fig6ConstructInMemory(c, seqgen.SuiteNames) }},
		{"table5", func() (bench.Table, error) { return bench.Table5MatchInMemory(c, bench.Table5Pairs) }},
		{"table6", func() (bench.Table, error) { return bench.Table6NodesChecked(c, bench.Table6Pairs) }},
		{"fig7", func() (bench.Table, error) {
			return bench.Fig7ConstructOnDisk(c, []string{"eco", "cel", "hc21"}, diskCfg)
		}},
		{"fig8", func() (bench.Table, error) {
			return bench.Fig8LinkDistribution(c, []string{"eco", "cel", "hc21"}, 6)
		}},
		{"table7", func() (bench.Table, error) { return bench.Table7MatchOnDisk(c, bench.Table7Pairs, diskCfg) }},
		{"size", func() (bench.Table, error) { return bench.BytesPerChar(c, seqgen.SuiteNames) }},
		{"protein", func() (bench.Table, error) { return bench.ProteinSuite(c, seqgen.ProteinSuiteNames) }},
		{"policy", func() (bench.Table, error) { return bench.BufferPolicyAblation(c, "eco") }},
		{"filter", func() (bench.Table, error) { return bench.FilterComparison(c, "eco") }},
		{"linear", func() (bench.Table, error) { return bench.Linearity(c, "cel", 5) }},
		{"latency", func() (bench.Table, error) {
			return bench.QueryLatency(c, "eco", []int{8, 16, 32, 64}, 64)
		}},
	}

	fmt.Printf("spinebench: scale divisor %d (paper scale = 1), sync=%v\n\n", divide, sync)
	ran := 0
	for _, e := range plan {
		if !sel(e.id) {
			continue
		}
		t, err := e.run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		t.Fprint(os.Stdout)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", exps)
	}
	return nil
}
