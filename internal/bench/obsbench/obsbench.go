// Package obsbench benchmarks the wide-event observability layer. Like
// cachebench, it lives in its own package (not internal/bench) because
// it exercises the public spine.Index query path, and the root package's
// own benchmarks import internal/bench — importing spine from there
// would be a cycle.
package obsbench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/spine-index/spine"
	"github.com/spine-index/spine/internal/bench"
	"github.com/spine-index/spine/internal/obs"
	"github.com/spine-index/spine/internal/trace"
)

// Exporter-overhead comparison: the same traced FindAll queries with the
// wide-event pipeline off versus on (JSONL sink to a real file), both
// arms paying for the trace itself, so the delta isolates what ISSUE 7's
// observability layer adds to the query path — event assembly, the RED
// rollup update and one non-blocking channel send; the file I/O happens
// on the pipeline's export goroutine. The run doubles as an export
// validation pass: every line of the JSONL output must decode back into
// an event, and the dropped counter must stay at zero.

// ObsBenchConfig drives RunObsBench over an in-process corpus build.
type ObsBenchConfig struct {
	Sequence   string // corpus sequence name, e.g. "eco"
	Requests   int    // queries per arm; <= 0 = 2000
	PatternLen int    // sampled pattern length; <= 0 = 4 (occurrence-heavy)
	Limit      int    // findall limit; <= 0 = 2000
	Buffer     int    // pipeline queue capacity; <= 0 = pipeline default
}

// ObsArmStats aggregates one arm's per-query latencies (exact
// percentiles, not histogram buckets — the overhead bound is a few
// percent and 2x buckets would bury it).
type ObsArmStats struct {
	Requests int     `json:"requests"`
	TotalUs  int64   `json:"totalUs"`
	MeanUs   float64 `json:"meanUs"`
	P50Us    float64 `json:"p50Us"`
	P90Us    float64 `json:"p90Us"`
	MaxUs    float64 `json:"maxUs"`
}

// ObsBenchReport is the BENCH_obs.json shape.
type ObsBenchReport struct {
	Sequence   string      `json:"sequence"`
	Chars      int         `json:"chars"`
	Requests   int         `json:"requests"`
	PatternLen int         `json:"patternLen"`
	Disabled   ObsArmStats `json:"disabled"`
	Enabled    ObsArmStats `json:"enabled"`
	// OverheadP50Pct is the p50 regression of the enabled arm relative
	// to the disabled arm, in percent (negative = noise in favor of
	// enabled). The acceptance bound is < 3%.
	OverheadP50Pct  float64 `json:"overheadP50Pct"`
	OverheadMeanPct float64 `json:"overheadMeanPct"`
	// Export health of the enabled arm.
	EventsEmitted int64 `json:"eventsEmitted"`
	Dropped       int64 `json:"dropped"`
	JSONLLines    int   `json:"jsonlLines"`
	JSONLValid    bool  `json:"jsonlValid"`
}

// RunObsBench measures the wide-event layer's query-path overhead and
// validates the JSONL export end to end.
func RunObsBench(c *bench.Corpus, cfg ObsBenchConfig) (bench.Table, ObsBenchReport, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 2000
	}
	if cfg.PatternLen <= 0 {
		cfg.PatternLen = 4
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 2000
	}
	text, err := c.Get(cfg.Sequence)
	if err != nil {
		return bench.Table{}, ObsBenchReport{}, err
	}
	patterns := bench.SamplePatterns(text, 256, cfg.PatternLen)
	if len(patterns) == 0 {
		return bench.Table{}, ObsBenchReport{}, fmt.Errorf("obsbench: cannot sample %d-char patterns from %s (%d chars)",
			cfg.PatternLen, cfg.Sequence, len(text))
	}
	idx := spine.Build(text)

	f, err := os.CreateTemp("", "spine-obsbench-*.jsonl")
	if err != nil {
		return bench.Table{}, ObsBenchReport{}, err
	}
	path := f.Name()
	defer os.Remove(path)
	pipe := obs.NewPipeline(obs.Config{Buffer: cfg.Buffer, RED: obs.NewRED(100 * time.Millisecond)}, obs.NewJSONLSink(f))

	// Warm both code paths (index caches, allocator) before timing.
	runObsArm(idx, patterns, min(cfg.Requests, 200), cfg.Limit, nil)
	runObsArm(idx, patterns, min(cfg.Requests, 200), cfg.Limit, pipe)

	disabled := runObsArm(idx, patterns, cfg.Requests, cfg.Limit, nil)
	enabled := runObsArm(idx, patterns, cfg.Requests, cfg.Limit, pipe)

	closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st := pipe.Stats()
	if err := pipe.Close(closeCtx); err != nil {
		return bench.Table{}, ObsBenchReport{}, fmt.Errorf("obsbench: pipeline close: %w", err)
	}
	lines, valid, err := validateJSONL(path)
	if err != nil {
		return bench.Table{}, ObsBenchReport{}, err
	}

	report := ObsBenchReport{
		Sequence:        cfg.Sequence,
		Chars:           len(text),
		Requests:        cfg.Requests,
		PatternLen:      cfg.PatternLen,
		Disabled:        disabled,
		Enabled:         enabled,
		OverheadP50Pct:  pctDelta(disabled.P50Us, enabled.P50Us),
		OverheadMeanPct: pctDelta(disabled.MeanUs, enabled.MeanUs),
		EventsEmitted:   st.EmittedQuery,
		Dropped:         st.Dropped,
		JSONLLines:      lines,
		JSONLValid:      valid,
	}

	t := bench.Table{
		ID:     "obs",
		Title:  fmt.Sprintf("wide-event exporter overhead (%s, %d findall queries/arm, plen %d)", cfg.Sequence, cfg.Requests, cfg.PatternLen),
		Header: []string{"arm", "requests", "mean(µs)", "p50(µs)", "p90(µs)", "max(µs)"},
	}
	for _, arm := range []struct {
		name string
		s    ObsArmStats
	}{{"export off", disabled}, {"export on (jsonl)", enabled}} {
		t.Rows = append(t.Rows, []string{
			arm.name,
			fmt.Sprintf("%d", arm.s.Requests),
			fmt.Sprintf("%.1f", arm.s.MeanUs),
			fmt.Sprintf("%.1f", arm.s.P50Us),
			fmt.Sprintf("%.1f", arm.s.P90Us),
			fmt.Sprintf("%.1f", arm.s.MaxUs),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("p50 overhead %.2f%%, mean overhead %.2f%%; %d events exported, %d dropped, jsonl valid=%v",
			report.OverheadP50Pct, report.OverheadMeanPct, report.EventsEmitted, report.Dropped, report.JSONLValid))
	return t, report, nil
}

// runObsArm issues n traced findall queries, emitting one wide event per
// query when pipe is non-nil (exactly the serving path's sequence:
// Begin, annotate, EmitQuery with the trace records), and returns exact
// latency stats.
func runObsArm(idx *spine.Index, patterns [][]byte, n, limit int, pipe *obs.Pipeline) ObsArmStats {
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		p := patterns[i%len(patterns)]
		t0 := time.Now()
		qc := obs.Begin(pipe, "findall", fmt.Sprintf("obsbench-%d", i), obs.TraceParent{})
		tr := trace.New()
		tr.SetEndpoint("findall")
		ctx := trace.NewContext(context.Background(), tr)
		res, err := idx.Query(ctx, p, spine.QueryOptions{Kind: spine.KindFindAll, Limit: limit})
		qc.SetPattern(trace.FingerprintOf(p))
		qc.SetQuery("findall", limit)
		if err == nil {
			qc.SetOutcome(obs.Outcome{
				Source:       res.Source.String(),
				NodesChecked: res.NodesChecked,
				ResultCount:  len(res.Positions),
				Truncated:    res.Truncated,
			})
		}
		elapsed := time.Since(t0)
		qc.EmitQuery(200, t0, elapsed, tr.Records())
		durs = append(durs, time.Since(t0))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return ObsArmStats{
		Requests: n,
		TotalUs:  total.Microseconds(),
		MeanUs:   us(total) / float64(n),
		P50Us:    us(durs[n/2]),
		P90Us:    us(durs[n*9/10]),
		MaxUs:    us(durs[n-1]),
	}
}

// validateJSONL decodes every line of the export file back into an
// event, returning the line count and whether all lines parsed.
func validateJSONL(path string) (int, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, valid := 0, true
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		lines++
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Type == "" {
			valid = false
		}
	}
	if err := sc.Err(); err != nil {
		return lines, false, err
	}
	return lines, valid, nil
}

// pctDelta is (b-a)/a in percent.
func pctDelta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}
