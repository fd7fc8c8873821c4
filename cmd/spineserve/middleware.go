package main

import (
	"context"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"github.com/spine-index/spine/internal/obs"
	"github.com/spine-index/spine/internal/trace"
)

// statusRecorder is the middleware's per-request state: the response
// writer the handler writes through (it captures status and byte count
// for the log and metrics) and the endpoint's pprof label sets.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	labels *profLabels
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// plenBuckets are the plen_bucket pprof label values, by the largest
// pattern length each holds (the last is open-ended).
var plenBuckets = [...]struct {
	max  int
	name string
}{
	{16, "0-16"},
	{64, "17-64"},
	{256, "65-256"},
	{1024, "257-1024"},
	{math.MaxInt, "1025+"},
}

// profLabels are one endpoint's pprof label sets as contexts, built once
// when the route is registered, so that labelling a request's goroutine
// allocates nothing: the endpoint alone, and the endpoint together with
// each plen_bucket.
type profLabels struct {
	endpoint context.Context
	plen     [len(plenBuckets)]context.Context
}

func newProfLabels(endpoint string) *profLabels {
	pl := &profLabels{endpoint: pprof.WithLabels(context.Background(), pprof.Labels("endpoint", endpoint))}
	for i, b := range plenBuckets {
		pl.plen[i] = pprof.WithLabels(pl.endpoint, pprof.Labels("plen_bucket", b.name))
	}
	return pl
}

// forPattern returns the label set of a query with an n-byte pattern.
func (pl *profLabels) forPattern(n int) context.Context {
	i := 0
	for n > plenBuckets[i].max {
		i++
	}
	return pl.plen[i]
}

// instrument wraps a handler with the full middleware stack, outermost
// first: panic recovery, request correlation (X-Request-Id and W3C
// traceparent ingest/echo), metrics + structured logging, the
// concurrency limiter (query endpoints only), the per-request query
// deadline, and — for sampled query requests — a per-query trace whose
// spans feed the per-stage/per-shard registry series and the slow-query
// log. Query endpoints additionally emit one wide event per request
// (deferred, after the handler finishes annotating it). The request's
// goroutine carries the pprof endpoint label from start to finish
// (handlers add plen_bucket once they have a pattern), so CPU profiles
// split by route.
func (s *server) instrument(name string, limited bool, h http.HandlerFunc) http.Handler {
	ep := s.reg.Endpoint(name)
	labels := newProfLabels(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		base := r.Context()
		pprof.SetGoroutineLabels(labels.endpoint)
		sr := &statusRecorder{ResponseWriter: w, labels: labels}

		// Correlation: adopt the client's X-Request-Id when it is sane,
		// mint one otherwise, and echo it on every response (including
		// 429s and panics) so the client can always quote it.
		reqID, ok := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if !ok {
			reqID = obs.NewRequestID()
		}
		sr.Header().Set("X-Request-Id", reqID)

		// Query endpoints open a wide-event scope; the incoming
		// traceparent (if well-formed) is continued, and the response
		// echoes this server's own span so the caller can parent on it.
		var qc *obs.QueryCtx
		if limited {
			incoming, _ := obs.ParseTraceParent(r.Header.Get("Traceparent"))
			qc = obs.Begin(s.pipe, name, reqID, incoming)
			if qc != nil {
				sr.Header().Set("Traceparent", qc.TraceParent().Header())
			}
		}

		var tr *trace.Trace
		ep.InFlight.Inc()
		defer func() {
			ep.InFlight.Dec()
			// Panic recovery: convert to 500, log the stack, keep serving.
			if rec := recover(); rec != nil {
				s.cfg.logger.Error("panic",
					slog.String("endpoint", name),
					slog.String("requestId", reqID),
					slog.Any("err", rec),
					slog.String("stack", string(debug.Stack())))
				qc.SetError(codeInternal)
				if sr.status == 0 {
					writeAPIError(sr, http.StatusInternalServerError, codeInternal, "internal server error")
				}
			}
			if sr.status == 0 {
				sr.status = http.StatusOK // nothing written: net/http sends 200
			}
			elapsed := time.Since(start)
			ep.ObserveRequest(sr.status, elapsed)
			recs := tr.Records()
			s.observeTrace(tr, recs, name, sr.status, start, elapsed)
			qc.EmitQuery(sr.status, start, elapsed, recs)
			s.cfg.logger.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", name),
				slog.String("requestId", reqID),
				slog.Int("status", sr.status),
				slog.Int64("durUs", elapsed.Microseconds()),
				slog.Int64("bytes", sr.bytes))
			pprof.SetGoroutineLabels(base)
		}()

		if limited && s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				// Saturated: shed load instead of queueing unboundedly.
				qc.SetError(codeSaturated)
				sr.Header().Set("Retry-After", "1")
				writeAPIError(sr, http.StatusTooManyRequests, codeSaturated, "server saturated, retry later")
				return
			}
		}

		ctx := base
		if limited && s.cfg.queryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.queryTimeout)
			defer cancel()
		}
		if qc != nil {
			ctx = obs.NewContext(ctx, qc)
		}
		if limited && s.sampler.Sample() {
			tr = trace.New()
			tr.SetEndpoint(name)
			tr.SetRequestID(reqID)
			ctx = trace.NewContext(ctx, tr)
		}
		if ctx != base {
			r = r.WithContext(ctx)
		}
		h(sr, r)
	})
}

// observeTrace folds a finished query's spans (recs, copied from tr
// once and shared with the wide event) into the registry's
// per-stage and per-shard series and, past the threshold, appends the
// query to the slow log with its full breakdown.
func (s *server) observeTrace(tr *trace.Trace, recs []trace.Record, name string, status int, start time.Time, elapsed time.Duration) {
	if tr == nil {
		return
	}
	for _, rec := range recs {
		st := s.reg.Stage(rec.Stage)
		st.Spans.Inc()
		st.Nanos.Add(rec.Duration.Nanoseconds())
		st.Nodes.Add(rec.Nodes)
		st.RibHops.Add(rec.RibHops)
		st.ExtribHops.Add(rec.ExtribHops)
		st.BlocksSkipped.Add(rec.BlocksSkipped)
		st.BlocksScanned.Add(rec.BlocksScanned)
		st.WordsCompared.Add(rec.WordsCompared)
		st.ReadaheadIssued.Add(rec.ReadaheadIssued)
		st.ReadaheadHits.Add(rec.ReadaheadHits)
		if rec.Shard >= 0 {
			sh := s.reg.Shard(rec.Shard)
			sh.NodesChecked.Add(rec.Nodes)
			if rec.Stage == trace.StageShard {
				sh.Queries.Inc()
				sh.Nanos.Add(rec.Duration.Nanoseconds())
			}
		}
	}
	if s.slowlog != nil && elapsed >= s.slowlog.Threshold() {
		s.slowlog.Add(tr.Entry(start, name, status, elapsed))
	}
}
