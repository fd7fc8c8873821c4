package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/spine-index/spine"
)

// span is one timed interval at a layer boundary. A root span (a
// request, or an ingest round) has Parent 0; every other span names the
// span that caused it. Spans of one operation share Op. Times are
// nanoseconds since the recorder was made.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder keeps spans in memory until the run ends; a nil recorder
// records nothing, which is the untraced run.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// add records a finished span and returns its id.
func (r *spanRecorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	return r.addNs(name, parent, op, start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds())
}

// addNs is add with times already relative to the recorder's start.
func (r *spanRecorder) addNs(name string, parent, op int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: start, End: end})
	return id
}

// reserve allocates the id of a span that is still open, so children
// recorded meanwhile can name it; finish closes it.
func (r *spanRecorder) reserve(name string, parent, op int, start time.Time) int {
	return r.add(name, parent, op, start, start)
}

func (r *spanRecorder) finish(id int, end time.Time) {
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

// write dumps the spans as JSON to benchmark/out/trace-<workload>.json.
func (r *spanRecorder) write(outDir, workload string) (string, error) {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	b, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// spanQuerier is the benchmark-side decorator that marks the engine
// boundary: whatever reaches it got past the cache layer. The replay is
// single-threaded, so the current parent and op are plain fields.
type spanQuerier struct {
	inner      spine.Querier
	rec        *spanRecorder
	parent, op int
	last       int // id of the engine span of the current op, 0 if none
}

func (s *spanQuerier) Query(ctx context.Context, p []byte, opts spine.QueryOptions) (spine.QueryResult, error) {
	t0 := time.Now()
	res, err := s.inner.Query(ctx, p, opts)
	s.last = s.rec.add("engine", s.parent, s.op, t0, time.Now())
	return res, err
}

func (s *spanQuerier) QueryBatch(ctx context.Context, ps [][]byte, opts spine.BatchOptions) ([]spine.QueryResult, error) {
	t0 := time.Now()
	res, err := s.inner.QueryBatch(ctx, ps, opts)
	s.last = s.rec.add("engine", s.parent, s.op, t0, time.Now())
	return res, err
}

func (s *spanQuerier) Len() int { return s.inner.Len() }

// Unwrap lets spine.Cached find the text for its negative filter.
func (s *spanQuerier) Unwrap() spine.Querier { return s.inner }
