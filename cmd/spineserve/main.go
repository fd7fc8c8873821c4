// Command spineserve is a production query service over a SPINE index —
// the "integration with database engines" angle of §1 grown into a real
// serving layer: any index flavor behind the unified spine.Querier API,
// fronted by a sharded result cache and a q-gram negative filter, with
// per-request deadlines that abort backbone scans mid-flight, load
// shedding, panic recovery, structured request logs, /metrics telemetry
// (latency histograms, nodes-checked aggregates, cache hit rates), and
// graceful drain on SIGINT/SIGTERM.
//
//	spineserve -fasta genome.fa -addr :8080
//	spineserve -index-file genome.spine -mmap -warmup -addr :8080
//	spineserve -synthetic eco -divide 100 -mode sharded -addr :8080
//	spineserve -synthetic eco -cache-bytes 134217728 -neg-filter=true
//	spineserve -synthetic eco -obs-export events.jsonl -log-format=json
//
// Endpoints (all JSON; query endpoints live under /v1/, and the
// unversioned paths remain as deprecated aliases answering with a
// Deprecation header and a successor-version Link). Errors share one
// shape: {"error": {"code": "...", "message": "..."}}.
//
//	GET  /healthz                          liveness + indexed length
//	GET  /metrics                          telemetry snapshot (latency histograms, query + cache + obs stats)
//	GET  /metrics?format=prom              Prometheus text exposition of the same registry (+ spine_obs_*/spine_slo_*)
//	GET  /stats                            index structure statistics
//	GET  /v1/contains?q=acgt               substring test
//	GET  /v1/find?q=acgt                   first occurrence
//	GET  /v1/findall?q=acgt&limit=100      occurrences (server-capped; "truncated" flags cut-off)
//	GET  /v1/count?q=acgt                  occurrence count
//	GET  /v1/approx?q=acgt&k=1&model=hamming  approximate occurrences (index mode only)
//	POST /v1/match?minlen=20               maximal matches vs the body sequence
//	POST /v1/batch                         multi-pattern batch (JSON array or {"patterns":[...],"limit":N})
//	GET  /debug/slowlog                    recent slow queries with per-stage breakdowns
//	GET  /debug/dash                       RED rollups (1s/10s/1m rings), SLO burn rates, exporter health
//	GET  /debug/vars, /debug/pprof/*       expvar + pprof
//
// The cache layer (-cache-bytes, 0 disables) keeps one entry per
// pattern — what the index has said about it so far — and answers any
// kind of request the entry determines (a complete findall also answers
// count, find and contains) without touching the index; under the byte
// budget it drops descent answers before scan answers, and it
// invalidates by epoch. The negative filter (-neg-filter) proves most
// absent patterns absent in O(|P|). Hit/miss/scan-miss/reject rates
// surface as spine_cache_* and spine_negfilter_* Prometheus families.
//
// Overload returns 429 with Retry-After; queries past -query-timeout
// return 504 after aborting the index scan. Query requests carry a
// per-query trace (sampled 1-in--trace-sample) whose stage spans feed
// the per-stage/per-shard Prometheus series; requests at or above
// -slowlog-threshold land in the /debug/slowlog ring with per-stage
// durations and §4.1 node counters.
//
// Every request carries correlation identity: the server adopts a sane
// client X-Request-Id (minting one otherwise) and echoes it on every
// response; query endpoints additionally ingest a W3C traceparent
// header, continue the caller's trace with a fresh server span, and
// echo the new traceparent. Each query emits one wide event — batch
// requests one per item, sharded fan-outs one per shard leg, all
// children of the request span — through a bounded, never-blocking
// async exporter (-obs-export JSONL file, -obs-http batch collector;
// overflow increments a dropped counter instead of stalling the query
// path). The same events feed a multi-resolution RED rollup and the
// -slo-* burn-rate engine behind /debug/dash and spine_slo_*.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/spine-index/spine"
	"github.com/spine-index/spine/internal/obs"
	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/seqgen"
)

func main() {
	var (
		fasta      = flag.String("fasta", "", "FASTA file to index (first record)")
		synthetic  = flag.String("synthetic", "", "synthetic suite sequence name")
		indexFile  = flag.String("index-file", "", "serve a saved compact index file (spine.Save output) instead of building one")
		useMmap    = flag.Bool("mmap", true, "memory-map -index-file zero-copy where the platform supports it")
		warmFile   = flag.Bool("warmup", true, "touch the hot top of the Link Table after a mapped open")
		divide     = flag.Int("divide", 1, "scale divisor for synthetic sequences")
		mode       = flag.String("mode", "index", "index layout: index|compact|sharded")
		shardSize  = flag.Int("shard-size", 1<<22, "shard slice length (sharded mode)")
		maxPattern = flag.Int("max-pattern", 1<<16, "longest supported pattern (sharded mode)")
		workers    = flag.Int("workers", 0, "shard build workers, 0 = one per shard (sharded mode)")
		addr       = flag.String("addr", ":8080", "listen address")

		cacheBytes = flag.Int64("cache-bytes", 64<<20, "result cache byte budget; 0 disables the cache layer. An answer larger than one lock shard's slice of it (1/16, but at least 64 KiB) is not cached")
		negFilter  = flag.Bool("neg-filter", true, "build a q-gram negative filter for O(|P|) absent-pattern answers (cache layer only)")

		queryTimeout = flag.Duration("query-timeout", 10*time.Second, "per-request index work deadline")
		maxInFlight  = flag.Int("max-inflight", 64, "max concurrent query requests before shedding 429s; 0 = unlimited")
		findAllCap   = flag.Int("findall-cap", 10000, "hard cap on /findall result size")
		maxPatLen    = flag.Int("max-pattern-len", 1<<20, "max q parameter length in bytes")
		maxBody      = flag.Int64("max-body", 256<<20, "max /match and /batch body size in bytes")
		batchCap     = flag.Int("batch-cap", 256, "max patterns per /batch request")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown drain deadline")

		slowlogThreshold = flag.Duration("slowlog-threshold", 250*time.Millisecond, "retain queries at least this slow in /debug/slowlog; 0 disables")
		slowlogSize      = flag.Int("slowlog-size", 128, "slow-query ring capacity")
		traceSample      = flag.Int("trace-sample", 1, "trace 1 in N query requests (1 = all, 0 = none)")

		logFormat = flag.String("log-format", "text", "request log format: text|json")
		obsExport = flag.String("obs-export", "", "append wide events as JSON lines to this file")
		obsHTTP   = flag.String("obs-http", "", "POST wide-event batches to this collector URL")
		obsBuffer = flag.Int("obs-buffer", 4096, "wide-event export queue capacity; overflow drops (never blocks)")

		sloAvailability = flag.Float64("slo-availability", 0.999, "availability objective (fraction of non-5xx query responses); 0 disables")
		sloLatencyObj   = flag.Float64("slo-latency-objective", 0.99, "latency objective (fraction of queries under -slo-latency); 0 disables")
		sloLatency      = flag.Duration("slo-latency", 100*time.Millisecond, "latency SLO threshold (also the RED rollup's slow cut)")
	)
	flag.Parse()

	logOut := newLogWriter(os.Stderr, logFlushInterval)
	defer logOut.Close()
	logger, err := newLogger(*logFormat, logOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spineserve:", err)
		os.Exit(1)
	}

	q, err := buildQuerier(*fasta, *synthetic, *indexFile, *useMmap, *warmFile, *divide, *mode, *shardSize, *maxPattern, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spineserve:", err)
		os.Exit(1)
	}
	servingMode := *mode
	if *indexFile != "" {
		// -index-file bypasses -mode; report how the image was opened.
		servingMode = "mapped"
		if mc, ok := q.(*spine.MappedCompact); ok {
			servingMode = "mapped/" + mc.Mode()
		}
	}
	q, err = wrapCache(q, *cacheBytes, *negFilter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spineserve:", err)
		os.Exit(1)
	}

	// The pipeline always runs — with zero sinks it still feeds the RED
	// rollup behind /debug/dash and the SLO burn rates, and the wide
	// events carry correlation ids even when nothing exports them.
	var sinks []obs.Sink
	if *obsExport != "" {
		js, err := obs.OpenJSONLSink(*obsExport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spineserve:", err)
			os.Exit(1)
		}
		sinks = append(sinks, js)
	}
	if *obsHTTP != "" {
		sinks = append(sinks, obs.NewHTTPSink(*obsHTTP, nil, -1, 0))
	}
	red := obs.NewRED(*sloLatency)
	pipe := obs.NewPipeline(obs.Config{Buffer: *obsBuffer, RED: red}, sinks...)
	slo := obs.NewSLO(obs.SLOConfig{
		Availability:     *sloAvailability,
		LatencyObjective: *sloLatencyObj,
		LatencyThreshold: *sloLatency,
	}, red)

	cfg := serverConfig{
		queryTimeout:     *queryTimeout,
		maxInFlight:      *maxInFlight,
		maxPatternLen:    *maxPatLen,
		maxBodyBytes:     *maxBody,
		maxBatchPatterns: *batchCap,
		findAllCap:       *findAllCap,
		logger:           logger,
		pipeline:         pipe,
		slo:              slo,

		slowlogThreshold: *slowlogThreshold,
		slowlogSize:      *slowlogSize,
		traceSample:      *traceSample,
	}
	app := newQueryServer(q, cfg)

	srv := newHTTPServer(*addr, app.mux(), *queryTimeout)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spineserve:", err)
		os.Exit(1)
	}
	logger.Info("spineserve: listening",
		slog.String("mode", servingMode),
		slog.Int("indexedChars", q.Len()),
		slog.String("addr", ln.Addr().String()))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := serveUntilDone(ctx, srv, ln, *drainTimeout)

	// Drain the exporter after the HTTP server: every in-flight request
	// has emitted its event by now, and the bounded wait keeps shutdown
	// prompt even with a wedged collector.
	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pipe.Close(closeCtx); err != nil {
		logger.Error("spineserve: event exporter close", slog.Any("err", err))
	}
	if serveErr != nil {
		logger.Error("spineserve: serve", slog.Any("err", serveErr)) // Error flushes the log
		os.Exit(1)
	}
	logger.Info("spineserve: drained, bye")
}

// newLogger builds the process logger in the requested format over the
// buffered writer w; request logs, panics and lifecycle messages all
// flow through it, and records at Warn or above flush w at once.
func newLogger(format string, w *logWriter) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text", "":
		h = slog.NewTextHandler(w, nil)
	case "json":
		h = slog.NewJSONHandler(w, nil)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text|json)", format)
	}
	return slog.New(&logHandler{Handler: h, w: w}), nil
}

// newHTTPServer hardens the listener: header/read/write/idle timeouts so
// slow or stuck clients cannot pin connections forever. The write
// timeout leaves headroom over the query deadline so a slow scan maps to
// a clean 504 rather than a killed connection.
func newHTTPServer(addr string, h http.Handler, queryTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute, // /match bodies can be large
		WriteTimeout:      queryTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// serveUntilDone serves until ctx is cancelled (SIGINT/SIGTERM), then
// shuts down gracefully: the listener closes immediately, in-flight
// requests drain up to drainTimeout, then remaining connections are cut.
func serveUntilDone(ctx context.Context, srv *http.Server, ln net.Listener, drainTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
		return fmt.Errorf("drain incomplete after %v: %w", drainTimeout, err)
	}
	return nil
}

// wrapCache fronts the index with the serving cache layer: the
// per-pattern result cache plus (optionally) the q-gram negative filter. cacheBytes
// <= 0 serves the raw index.
func wrapCache(q spine.Querier, cacheBytes int64, negFilter bool) (spine.Querier, error) {
	if cacheBytes <= 0 {
		return q, nil
	}
	return spine.Cached(q, spine.CacheConfig{
		MaxBytes:         cacheBytes,
		DisableNegFilter: !negFilter,
	})
}

// buildQuerier loads the text and builds the requested index flavor
// behind the unified Querier API. With -index-file the index is served
// straight from the saved image (zero-copy mmap where supported) and
// the build flags are ignored.
func buildQuerier(fasta, synthetic, indexFile string, useMmap, warm bool, divide int, mode string, shardSize, maxPattern, workers int) (spine.Querier, error) {
	if indexFile != "" {
		return spine.OpenMapped(indexFile, spine.MappedOptions{
			NoMmap: !useMmap,
			Warmup: warm,
		})
	}
	var data []byte
	switch {
	case fasta != "":
		f, err := os.Open(fasta)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := seq.ReadFASTA(f)
		if err != nil {
			return nil, err
		}
		data = seq.DNA.Sanitize(recs[0].Seq)
	case synthetic != "":
		s, err := seqgen.SuiteSequence(synthetic, divide)
		if err != nil {
			return nil, err
		}
		data = s
	default:
		return nil, fmt.Errorf("one of -fasta, -synthetic or -index-file is required")
	}
	switch mode {
	case "index", "":
		return spine.Build(data), nil
	case "compact":
		return spine.Build(data).Compact(spine.DNA)
	case "sharded":
		if shardSize > len(data) && len(data) > 0 {
			shardSize = len(data)
		}
		if maxPattern > shardSize {
			maxPattern = shardSize
		}
		return spine.BuildSharded(data, shardSize, maxPattern, workers)
	default:
		return nil, fmt.Errorf("unknown -mode %q (index|compact|sharded)", mode)
	}
}
