package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/spine-index/spine"
	"github.com/spine-index/spine/internal/obs"
	"github.com/spine-index/spine/internal/seqgen"
)

// serveQueryTargets are the query paths BenchmarkServeQuery drives and
// TestQueryRequestAllocBudget pins, with their allocation budgets per
// request (httptest recorder included, about 7 of them).
var serveQueryTargets = []struct {
	name, target string
	budget       float64
}{
	{"contains", "/v1/contains?q=acgtacgtac", 32},
	{"find", "/v1/find?q=acgtacgtac", 32},
	{"count", "/v1/count?q=acgtacgtac", 36},
	{"findall", "/v1/findall?q=acgtacgtac&limit=10", 36},
}

// servingApp is the server as main assembles it with default flags and
// the cache off: a compact index, every query traced, a wide-event
// pipeline with no sinks feeding the RED rollup and the SLO engine, and
// the buffered text request log (written to io.Discard).
func servingApp(tb testing.TB) *server {
	tb.Helper()
	data, err := seqgen.SuiteSequence("eco", 200)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := spine.Build(data).Compact(spine.DNA)
	if err != nil {
		tb.Fatal(err)
	}
	red := obs.NewRED(100 * time.Millisecond)
	pipe := obs.NewPipeline(obs.Config{RED: red})
	tb.Cleanup(func() { pipe.Close(context.Background()) })
	lw := newLogWriter(io.Discard, logFlushInterval)
	tb.Cleanup(func() { lw.Close() })
	cfg := defaultConfig()
	if cfg.logger, err = newLogger("text", lw); err != nil {
		tb.Fatal(err)
	}
	cfg.pipeline = pipe
	cfg.slo = obs.NewSLO(obs.SLOConfig{
		Availability:     0.999,
		LatencyObjective: 0.99,
		LatencyThreshold: 100 * time.Millisecond,
	}, red)
	return newQueryServer(q, cfg)
}

// serveOnce sends req through h into a fresh recorder.
func serveOnce(tb testing.TB, h http.Handler, req *http.Request) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", req.URL, rec.Code, rec.Body)
	}
}

// BenchmarkServeQuery measures one query request through the full
// middleware stack and handler (everything but the socket): run with
// -benchmem to see the allocations per request.
//
//	go test -run '^$' -bench ServeQuery -benchmem ./cmd/spineserve
func BenchmarkServeQuery(b *testing.B) {
	h := servingApp(b).mux()
	for _, tc := range serveQueryTargets {
		b.Run(tc.name, func(b *testing.B) {
			req := httptest.NewRequest("GET", tc.target, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveOnce(b, h, req)
			}
		})
	}
}

// TestQueryRequestAllocBudget pins the per-request allocation budget of
// the query endpoints, measured like BenchmarkServeQuery.
func TestQueryRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	h := servingApp(t).mux()
	for _, tc := range serveQueryTargets {
		req := httptest.NewRequest("GET", tc.target, nil)
		serveOnce(t, h, req) // first use creates registry and RED series
		got := testing.AllocsPerRun(200, func() { serveOnce(t, h, req) })
		t.Logf("%s: %.1f allocations per request (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocations per request, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
