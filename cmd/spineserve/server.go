package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	runtimepprof "runtime/pprof"
	"strconv"
	"time"

	"github.com/spine-index/spine"
	"github.com/spine-index/spine/internal/core"
	"github.com/spine-index/spine/internal/obs"
	"github.com/spine-index/spine/internal/telemetry"
	"github.com/spine-index/spine/internal/trace"
)

// serverConfig tunes the robustness layer around the query handlers.
type serverConfig struct {
	// queryTimeout bounds each request's index work; expired deadlines
	// abort backbone scans mid-flight and map to 504.
	queryTimeout time.Duration
	// maxInFlight caps concurrently executing query requests; excess
	// load sheds with 429 + Retry-After. <= 0 disables the limiter.
	maxInFlight int
	// maxPatternLen caps the q parameter length (bytes).
	maxPatternLen int
	// maxBodyBytes caps the /match and /batch request bodies.
	maxBodyBytes int64
	// maxBatchPatterns caps the number of patterns one /batch request
	// may carry.
	maxBatchPatterns int
	// findAllCap is the largest (and default) /findall result limit.
	findAllCap int
	// slowlogThreshold is the request duration at or above which a traced
	// query is retained in the slow-query ring; <= 0 disables the log.
	slowlogThreshold time.Duration
	// slowlogSize is the slow-query ring capacity.
	slowlogSize int
	// traceSample traces 1 in N query requests (1 = every query, 0 =
	// never). Untraced queries pay one context lookup and nothing else.
	traceSample int
	logger      *slog.Logger
	// pipeline, when set, receives one wide event per query (plus
	// batch-item and shard-leg events) and powers /debug/dash; nil turns
	// the wide-event layer off entirely.
	pipeline *obs.Pipeline
	// slo, when set, computes burn rates over the pipeline's RED rollup
	// for /debug/dash and the spine_slo_* Prometheus families.
	slo *obs.SLO
}

func defaultConfig() serverConfig {
	return serverConfig{
		queryTimeout:     10 * time.Second,
		maxInFlight:      64,
		maxPatternLen:    1 << 20,
		maxBodyBytes:     256 << 20,
		maxBatchPatterns: 256,
		findAllCap:       10000,
		slowlogThreshold: 250 * time.Millisecond,
		slowlogSize:      128,
		traceSample:      1,
		logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// server wraps any spine.Querier with instrumented, hardened HTTP
// handlers. Optional capabilities (stats, maximal matching, approximate
// search, cache counters) are discovered by interface assertion —
// descending through decorator Unwrap chains — so the same server
// fronts reference, compact and sharded indexes, cached or not.
type server struct {
	q       spine.Querier
	reg     *telemetry.Registry
	cfg     serverConfig
	sem     chan struct{} // concurrency limiter; nil when disabled
	sampler *trace.Sampler
	slowlog *trace.SlowLog // nil when the threshold disables it
	pipe    *obs.Pipeline  // nil-safe: every obs call no-ops when unset
	slo     *obs.SLO
	// hasCache gates the per-endpoint hit/miss attribution: without a
	// Cached querier in the chain every result is a scan and counting
	// "misses" would be noise.
	hasCache bool
}

// Optional capabilities beyond the Querier surface.
type (
	statser interface {
		Stats() spine.Stats
	}
	matcher interface {
		MaximalMatchesContext(ctx context.Context, query []byte, minLen int) ([]spine.Match, spine.MatchInfo, error)
	}
	approxer interface {
		FindAllWithin(p []byte, k int, model spine.Distance) []int
	}
	cacheStatser interface {
		CacheStats() spine.CacheStats
	}
	diskStatser interface {
		DiskStats() spine.DiskStats
	}
)

// capability resolves an optional interface on q, descending through
// decorator Unwrap chains (the result cache wraps the index; the
// index's capabilities must stay visible through it).
func capability[T any](q spine.Querier) (T, bool) {
	for {
		if t, ok := q.(T); ok {
			return t, true
		}
		u, ok := q.(interface{ Unwrap() spine.Querier })
		if !ok {
			var zero T
			return zero, false
		}
		q = u.Unwrap()
	}
}

func newQueryServer(q spine.Querier, cfg serverConfig) *server {
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &server{q: q, reg: telemetry.NewRegistry(), cfg: cfg, pipe: cfg.pipeline, slo: cfg.slo}
	if cfg.maxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.maxInFlight)
	}
	s.sampler = trace.NewSampler(cfg.traceSample)
	if cfg.slowlogThreshold > 0 {
		s.slowlog = trace.NewSlowLog(cfg.slowlogSize, cfg.slowlogThreshold)
	}
	if cs, ok := capability[cacheStatser](q); ok {
		s.hasCache = true
		s.reg.SetCacheSource(func() telemetry.CacheSnapshot {
			st := cs.CacheStats()
			return telemetry.CacheSnapshot{
				Hits:           st.Hits,
				Misses:         st.Misses,
				ScanMisses:     st.ScanMisses,
				NegRejects:     st.NegRejects,
				NegFalsePos:    st.NegFalsePos,
				Entries:        st.Entries,
				Bytes:          st.Bytes,
				Evictions:      st.Evictions,
				Epoch:          st.Epoch,
				NegFilterQ:     st.NegFilterQ,
				NegFilterBytes: st.NegFilterBytes,
			}
		})
	}
	if ds, ok := capability[diskStatser](q); ok {
		s.reg.SetDiskSource(func() telemetry.DiskSnapshot {
			st := ds.DiskStats()
			return telemetry.DiskSnapshot{
				Mode:              st.Mode,
				FileBytes:         st.FileBytes,
				MappedBytes:       st.MappedBytes,
				ResidentBytes:     st.ResidentBytes,
				WarmedBytes:       st.WarmedBytes,
				ReadaheadIssued:   st.ReadaheadIssued,
				ReadaheadHits:     st.ReadaheadHits,
				ReadaheadBytes:    st.ReadaheadBytes,
				RangeCacheEvicted: st.RangeCacheEvicted,
				OpenSeconds:       float64(st.OpenNanos) / 1e9,
			}
		})
	}
	s.reg.SetScanKernelInfo(telemetry.ScanKernelInfo{
		Kernel: core.ActiveScanKernel().String(),
		ISA:    core.ScanKernelISA(),
	})
	s.reg.PublishExpvar("spine")
	return s
}

// mux wires every endpoint through the middleware stack. Query
// endpoints live under /v1/ and pass the concurrency limiter; each
// also keeps its original unversioned path as a deprecated alias
// (same handler, same metrics, plus Deprecation/Link headers).
// Operational endpoints (health, metrics, debug) stay unversioned and
// bypass the limiter so they remain reachable under saturation.
func (s *server) mux() http.Handler {
	m := http.NewServeMux()
	m.Handle("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	m.Handle("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	m.Handle("GET /stats", s.instrument("stats", false, s.handleStats))
	for _, ep := range []struct {
		method, name string
		h            http.HandlerFunc
	}{
		{"GET", "contains", s.handleContains},
		{"GET", "find", s.handleFind},
		{"GET", "findall", s.handleFindAll},
		{"GET", "count", s.handleCount},
		{"GET", "approx", s.handleApprox},
		{"POST", "match", s.handleMatch},
		{"POST", "batch", s.handleBatch},
	} {
		h := s.instrument(ep.name, true, ep.h)
		m.Handle(ep.method+" /v1/"+ep.name, h)
		m.Handle(ep.method+" /"+ep.name, deprecatedAlias(ep.name, h))
	}
	m.Handle("GET /debug/slowlog", s.instrument("slowlog", false, s.handleSlowlog))
	m.Handle("GET /debug/dash", s.instrument("dash", false, s.handleDash))
	m.Handle("GET /debug/vars", expvar.Handler())
	m.HandleFunc("GET /debug/pprof/", pprof.Index)
	m.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	m.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return m
}

// deprecatedAlias serves an unversioned query path with deprecation
// headers (RFC 8594-style) pointing clients at the /v1/ successor.
func deprecatedAlias(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", `</v1/`+name+`>; rel="successor-version"`)
		h.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to salvage mid-stream.
		return
	}
}

// apiError is the unified error object every endpoint returns:
// {"error": {"code": "...", "message": "..."}}. code is a stable
// machine-readable slug; message is human-readable detail.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stable error codes of the HTTP surface.
const (
	codeBadRequest     = "bad_request"
	codePatternTooLong = "pattern_too_long"
	codeTooLarge       = "too_large"
	codeTimeout        = "timeout"
	codeCanceled       = "canceled"
	codeUnsupported    = "unsupported"
	codeSaturated      = "too_many_requests"
	codeInternal       = "internal"
)

// writeAPIError emits the unified error envelope with the given status.
func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]apiError{"error": {Code: code, Message: msg}})
}

// statusFor maps a query error to its HTTP status: client errors
// (oversized patterns, malformed batches) are 4xx, expired deadlines
// 504, everything else 500. A cancelled context means the client went
// away — 503 records the abort without pretending the work finished.
func statusFor(err error) int {
	switch {
	case errors.Is(err, spine.ErrPatternTooLong),
		errors.Is(err, spine.ErrBadBatch),
		errors.Is(err, spine.ErrBadQueryKind):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// codeFor maps a query error to its stable error code.
func codeFor(err error) string {
	switch {
	case errors.Is(err, spine.ErrPatternTooLong):
		return codePatternTooLong
	case errors.Is(err, spine.ErrBadBatch), errors.Is(err, spine.ErrBadQueryKind):
		return codeBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return codeTimeout
	case errors.Is(err, context.Canceled):
		return codeCanceled
	default:
		return codeInternal
	}
}

// fail writes the unified error envelope and stamps the stable code on
// the request's wide event, so exported events carry the same slug the
// client saw.
func (s *server) fail(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	obs.FromContext(r.Context()).SetError(code)
	writeAPIError(w, status, code, msg)
}

func (s *server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	s.fail(w, r, statusFor(err), codeFor(err), err.Error())
}

// pattern extracts and validates the q parameter of the request.
func (s *server) pattern(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	q := queryValue(r, "q")
	if q == "" {
		s.fail(w, r, http.StatusBadRequest, codeBadRequest, "missing q parameter")
		return nil, false
	}
	if len(q) > s.cfg.maxPatternLen {
		s.writeError(w, r, fmt.Errorf("%w: %d bytes exceeds the server's %d-byte cap",
			spine.ErrPatternTooLong, len(q), s.cfg.maxPatternLen))
		return nil, false
	}
	return []byte(q), true
}

// observePattern records the pattern length in the registry, stamps the
// pattern's fingerprint (computed once) on the query's trace and wide
// event, and adds a low-cardinality pattern-length bucket to the
// goroutine's endpoint label so CPU profiles split by query size. The
// middleware restores the labels when the request ends.
func (s *server) observePattern(w http.ResponseWriter, r *http.Request, p []byte) {
	s.reg.Query.PatternLen.Observe(int64(len(p)))
	tr, qc := trace.FromContext(r.Context()), obs.FromContext(r.Context())
	if tr != nil || qc != nil {
		fp := trace.FingerprintOf(p)
		tr.SetFingerprint(fp)
		qc.SetPattern(fp)
	}
	if sr, ok := w.(*statusRecorder); ok {
		runtimepprof.SetGoroutineLabels(sr.labels.forPattern(len(p)))
	}
}

// observeSource attributes a result's provenance to the endpoint: a
// cache hit or negative-filter rejection counts as a cache hit (the
// request did no index work), a scan as a miss. No-op on servers
// running without a cache.
func (s *server) observeSource(name string, src spine.ResultSource) {
	if !s.hasCache {
		return
	}
	ep := s.reg.Endpoint(name)
	if src == spine.SourceScan {
		ep.CacheMisses.Inc()
	} else {
		ep.CacheHits.Inc()
	}
}

// observeResult stamps a successful query's outcome everywhere it is
// reported: the endpoint's cache hit/miss counters, the trace (so slow
// log entries name their source), and the request's wide event.
func (s *server) observeResult(r *http.Request, name string, res spine.QueryResult, resultCount int) {
	s.observeSource(name, res.Source)
	src := res.Source.String()
	trace.FromContext(r.Context()).SetSource(src)
	obs.FromContext(r.Context()).SetOutcome(obs.Outcome{
		Source:       src,
		NodesChecked: res.NodesChecked,
		ResultCount:  resultCount,
		Truncated:    res.Truncated,
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"ok": true, "indexedChars": s.q.Len()})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if queryValue(r, "format") == "prom" {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		if err := s.reg.WritePrometheus(w); err != nil {
			s.cfg.logger.Error("metrics: prometheus write", slog.Any("err", err))
			return
		}
		obs.WritePrometheus(w, s.pipe.Stats(), s.slo)
		return
	}
	writeJSON(w, struct {
		telemetry.Snapshot
		Obs obs.PipelineStats `json:"obs"`
	}{s.reg.Snapshot(), s.pipe.Stats()})
}

// handleDash serves the observability dashboard JSON: pipeline health,
// the multi-resolution RED rollups per endpoint×kind, and the SLO
// burn-rate evaluation.
func (s *server) handleDash(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, obs.BuildDash(s.pipe, s.slo))
}

func (s *server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	if s.slowlog == nil {
		writeJSON(w, map[string]any{"enabled": false})
		return
	}
	entries, total := s.slowlog.Snapshot()
	writeJSON(w, map[string]any{
		"enabled":     true,
		"thresholdUs": s.slowlog.Threshold().Microseconds(),
		"total":       total,
		"entries":     entries,
	})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st, ok := capability[statser](s.q)
	if !ok {
		writeJSON(w, map[string]any{"length": s.q.Len()})
		return
	}
	stats := st.Stats()
	writeJSON(w, map[string]any{
		"length":      stats.Length,
		"ribs":        stats.RibCount,
		"extribs":     stats.ExtribCount,
		"maxLEL":      stats.MaxLEL,
		"maxPT":       stats.MaxPT,
		"memoryBytes": stats.MemoryBytes,
	})
}

func (s *server) handleContains(w http.ResponseWriter, r *http.Request) {
	p, ok := s.pattern(w, r)
	if !ok {
		return
	}
	s.observePattern(w, r, p)
	obs.FromContext(r.Context()).SetQuery(spine.KindContains.String(), 0)
	res, err := s.q.Query(r.Context(), p, spine.QueryOptions{Kind: spine.KindContains})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	found := 0
	if res.Found {
		found = 1
	}
	s.observeResult(r, "contains", res, found)
	s.reg.Query.NodesChecked.Add(res.NodesChecked)
	bd := newBody()
	bd.b = appendContainsBody(bd.b, res.Found)
	bd.send(w)
}

func (s *server) handleFind(w http.ResponseWriter, r *http.Request) {
	p, ok := s.pattern(w, r)
	if !ok {
		return
	}
	s.observePattern(w, r, p)
	obs.FromContext(r.Context()).SetQuery(spine.KindFind.String(), 0)
	res, err := s.q.Query(r.Context(), p, spine.QueryOptions{Kind: spine.KindFind})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	found := 0
	if res.Found {
		found = 1
	}
	s.observeResult(r, "find", res, found)
	s.reg.Query.NodesChecked.Add(res.NodesChecked)
	bd := newBody()
	bd.b = appendFindBody(bd.b, res.Position)
	bd.send(w)
}

func (s *server) handleFindAll(w http.ResponseWriter, r *http.Request) {
	p, ok := s.pattern(w, r)
	if !ok {
		return
	}
	limit := s.cfg.findAllCap
	if v := queryValue(r, "limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.fail(w, r, http.StatusBadRequest, codeBadRequest, "bad limit")
			return
		}
		if n < limit {
			limit = n
		}
	}
	s.observePattern(w, r, p)
	obs.FromContext(r.Context()).SetQuery(spine.KindFindAll.String(), limit)
	res, err := s.q.Query(r.Context(), p, spine.QueryOptions{Kind: spine.KindFindAll, Limit: limit})
	s.reg.Query.NodesChecked.Add(res.NodesChecked)
	tr := trace.FromContext(r.Context())
	tr.SetNodesChecked(res.NodesChecked)
	tr.SetTruncated(res.Truncated)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.observeResult(r, "findall", res, len(res.Positions))
	s.reg.Query.Occurrences.Add(int64(len(res.Positions)))
	if res.Truncated {
		s.reg.Query.Truncated.Inc()
	}
	bd := newBody()
	bd.b = appendFindAllBody(bd.b, res.Positions, res.Truncated)
	bd.send(w)
}

func (s *server) handleCount(w http.ResponseWriter, r *http.Request) {
	p, ok := s.pattern(w, r)
	if !ok {
		return
	}
	s.observePattern(w, r, p)
	obs.FromContext(r.Context()).SetQuery(spine.KindCount.String(), 0)
	res, err := s.q.Query(r.Context(), p, spine.QueryOptions{Kind: spine.KindCount})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.observeResult(r, "count", res, res.Count)
	s.reg.Query.NodesChecked.Add(res.NodesChecked)
	s.reg.Query.Occurrences.Add(int64(res.Count))
	bd := newBody()
	bd.b = appendCountBody(bd.b, res.Count)
	bd.send(w)
}

func (s *server) handleApprox(w http.ResponseWriter, r *http.Request) {
	ap, capOK := capability[approxer](s.q)
	if !capOK {
		s.fail(w, r, http.StatusNotImplemented, codeUnsupported,
			"approximate search is not supported by this index type")
		return
	}
	p, ok := s.pattern(w, r)
	if !ok {
		return
	}
	k := 1
	if v := queryValue(r, "k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 3 {
			s.fail(w, r, http.StatusBadRequest, codeBadRequest, "bad k (0..3)")
			return
		}
		k = n
	}
	model := spine.Hamming
	switch queryValue(r, "model") {
	case "", "hamming":
	case "edit":
		model = spine.Edit
	default:
		s.fail(w, r, http.StatusBadRequest, codeBadRequest, "bad model (hamming|edit)")
		return
	}
	s.observePattern(w, r, p)
	obs.FromContext(r.Context()).SetQuery("approx", k)
	positions := ap.FindAllWithin(p, k, model)
	s.reg.Query.Occurrences.Add(int64(len(positions)))
	obs.FromContext(r.Context()).SetOutcome(obs.Outcome{Source: "scan", ResultCount: len(positions)})
	writeJSON(w, map[string]any{"positions": positions})
}

func (s *server) handleMatch(w http.ResponseWriter, r *http.Request) {
	mt, capOK := capability[matcher](s.q)
	if !capOK {
		s.fail(w, r, http.StatusNotImplemented, codeUnsupported,
			"maximal matching is not supported by this index type")
		return
	}
	minLen := 20
	if v := queryValue(r, "minlen"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.fail(w, r, http.StatusBadRequest, codeBadRequest, "bad minlen")
			return
		}
		minLen = n
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, "query sequence too large")
			return
		}
		s.fail(w, r, http.StatusBadRequest, codeBadRequest, "reading body")
		return
	}
	if len(body) == 0 {
		s.fail(w, r, http.StatusBadRequest, codeBadRequest, "empty query sequence")
		return
	}
	s.observePattern(w, r, body)
	obs.FromContext(r.Context()).SetQuery("match", minLen)
	matches, info, err := mt.MaximalMatchesContext(r.Context(), body, minLen)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.reg.Query.NodesChecked.Add(info.NodesChecked)
	trace.FromContext(r.Context()).SetNodesChecked(info.NodesChecked)
	s.reg.Query.Occurrences.Add(int64(info.Pairs))
	obs.FromContext(r.Context()).SetOutcome(obs.Outcome{
		Source: "scan", NodesChecked: info.NodesChecked, ResultCount: info.Pairs,
	})
	writeJSON(w, map[string]any{
		"matches":      matches,
		"pairs":        info.Pairs,
		"nodesChecked": info.NodesChecked,
		"elapsedNs":    info.Elapsed.Nanoseconds(),
	})
}

// batchItem is one per-pattern entry in a /batch response. Items keep
// their request order; status distinguishes answered items ("ok") from
// individually rejected ones ("error", with the unified error object
// in error).
type batchItem struct {
	Status       string    `json:"status"`
	Count        int       `json:"count"`
	Positions    []int     `json:"positions"`
	Truncated    bool      `json:"truncated"`
	NodesChecked int64     `json:"nodesChecked"`
	Error        *apiError `json:"error,omitempty"`
}

// handleBatch answers a multi-pattern query with one engine batch: all
// descents pooled, all occurrence lists resolved by a single backbone
// scan per index (per shard in sharded mode). The body is either a bare
// JSON array of patterns or {"patterns": [...], "limit": N}. The limit
// applies per item and is capped at the /findall cap. Oversized
// patterns fail alone with a per-item error; the batch answers.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, "batch body too large")
			return
		}
		s.fail(w, r, http.StatusBadRequest, codeBadRequest, "reading body")
		return
	}
	var req struct {
		Patterns []string `json:"patterns"`
		Limit    int      `json:"limit"`
	}
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) > 0 && trimmed[0] == '[' {
		err = json.Unmarshal(trimmed, &req.Patterns)
	} else {
		err = json.Unmarshal(trimmed, &req)
	}
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, codeBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(req.Patterns) == 0 {
		s.fail(w, r, http.StatusBadRequest, codeBadRequest, "empty batch")
		return
	}
	if len(req.Patterns) > s.cfg.maxBatchPatterns {
		s.fail(w, r, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("batch of %d patterns exceeds the server's %d-pattern cap",
				len(req.Patterns), s.cfg.maxBatchPatterns))
		return
	}
	if req.Limit < 0 {
		s.fail(w, r, http.StatusBadRequest, codeBadRequest, "bad limit")
		return
	}
	limit := s.cfg.findAllCap
	if req.Limit > 0 && req.Limit < limit {
		limit = req.Limit
	}
	qc := obs.FromContext(r.Context())
	qc.SetQuery("batch", limit)

	// Server-side validation happens before the engine sees the batch:
	// oversized patterns become per-item errors and are excluded from the
	// engine call, so one hostile item cannot sink its neighbors.
	items := make([]batchItem, len(req.Patterns))
	pats := make([][]byte, 0, len(req.Patterns))
	fromEngine := make([]int, 0, len(req.Patterns)) // engine position -> request position
	unique := make(map[string]struct{}, len(req.Patterns))
	for i, ps := range req.Patterns {
		unique[ps] = struct{}{}
		if len(ps) > s.cfg.maxPatternLen {
			items[i] = batchItem{Status: "error", Error: &apiError{
				Code: codePatternTooLong,
				Message: fmt.Sprintf("%v: %d bytes exceeds the server's %d-byte cap",
					spine.ErrPatternTooLong, len(ps), s.cfg.maxPatternLen),
			}}
			s.reg.Batch.RejectedItems.Inc()
			continue
		}
		s.reg.Query.PatternLen.Observe(int64(len(ps)))
		pats = append(pats, []byte(ps))
		fromEngine = append(fromEngine, i)
	}
	s.reg.Batch.Batches.Inc()
	s.reg.Batch.Patterns.Add(int64(len(req.Patterns)))
	s.reg.Batch.Size.Observe(int64(len(req.Patterns)))
	s.reg.Batch.Deduped.Add(int64(len(req.Patterns) - len(unique)))
	trace.FromContext(r.Context()).SetPattern(bytes.Join(pats, []byte{0x1f}))

	// The engine's descent workers relabel themselves with pprof.Do on
	// this context, which keeps only the labels the context carries; the
	// endpoint label rides along so their CPU stays attributed to it.
	ctx := runtimepprof.WithLabels(r.Context(), runtimepprof.Labels("endpoint", "batch"))
	engineStart := time.Now()
	results, err := s.q.QueryBatch(ctx, pats, spine.BatchOptions{Limit: limit})
	engineElapsed := time.Since(engineStart)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	sources := make([]string, len(req.Patterns))
	var nodes, occurrences int64
	for k, res := range results {
		i := fromEngine[k]
		nodes += res.NodesChecked
		sources[i] = res.Source.String()
		if res.Err != nil {
			items[i] = batchItem{Status: "error", Error: &apiError{
				Code:    codeFor(res.Err),
				Message: res.Err.Error(),
			}}
			s.reg.Batch.RejectedItems.Inc()
			continue
		}
		s.observeSource("batch", res.Source)
		if res.Truncated {
			s.reg.Query.Truncated.Inc()
		}
		occurrences += int64(len(res.Positions))
		pos := res.Positions
		if pos == nil {
			pos = []int{}
		}
		items[i] = batchItem{
			Status:       "ok",
			Count:        len(res.Positions),
			Positions:    pos,
			Truncated:    res.Truncated,
			NodesChecked: res.NodesChecked,
		}
	}
	s.reg.Query.NodesChecked.Add(nodes)
	s.reg.Query.Occurrences.Add(occurrences)
	trace.FromContext(r.Context()).SetNodesChecked(nodes)
	trace.FromContext(r.Context()).SetSource("scan")

	// The batch is covered by per-item events (one per request item, all
	// children of this request's span), so the request-level query event
	// is suppressed. Engine time is amortized evenly across the items the
	// engine actually ran; rejected items never reached it and report 0.
	if qc != nil {
		qc.SuppressQueryEvent()
		var perItemUs int64
		if len(results) > 0 {
			perItemUs = engineElapsed.Microseconds() / int64(len(results))
		}
		for i, ps := range req.Patterns {
			it := items[i]
			var errCode string
			durUs := perItemUs
			if it.Error != nil {
				errCode = it.Error.Code
				if errCode == codePatternTooLong {
					durUs = 0 // rejected before the engine ran
				}
			}
			qc.EmitBatchItem(i, trace.FingerprintOf([]byte(ps)), limit, obs.Outcome{
				Source:       sources[i],
				NodesChecked: it.NodesChecked,
				ResultCount:  it.Count,
				Truncated:    it.Truncated,
			}, errCode, durUs)
		}
	}
	writeJSON(w, map[string]any{
		"patterns": len(req.Patterns),
		"unique":   len(unique),
		"limit":    limit,
		"results":  items,
	})
}
