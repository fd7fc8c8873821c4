package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/spine-index/spine"
)

// None of these tests runs a workload: they cover the checker, the
// quantile rules, schedule determinism and the BENCHMARK.json contract.

func testText(t *testing.T) []byte {
	t.Helper()
	text, err := genCorpus(3, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestCheckerRejectsWrongAnswers feeds the checker a right answer of
// each kind, then a deliberately wrong one.
func TestCheckerRejectsWrongAnswers(t *testing.T) {
	text := []byte("acgtacgtacgaacgt")
	orc := newOracle(text)
	pat := []byte("acg") // at 0, 4, 8, 12
	cases := []struct {
		name        string
		op          op
		right       string
		wrongBodies []string
	}{
		{"contains", newOp(opContains, 0, pat), `{"contains":true}`,
			[]string{`{"contains":false}`, `{}`, `not json`}},
		{"find", newOp(opFind, 0, pat), `{"position":0}`,
			[]string{`{"position":4}`, `{"position":-1}`, `{}`}},
		{"count", newOp(opCount, 0, pat), `{"count":4}`,
			[]string{`{"count":3}`, `{"count":5}`, `{}`}},
		{"findall", newOp(opFindAll, 10, pat), `{"count":4,"positions":[0,4,8,12],"truncated":false}`,
			[]string{
				`{"count":4,"positions":[0,4,8,13],"truncated":false}`, // wrong offset
				`{"count":3,"positions":[0,4,8],"truncated":false}`,    // one missing
				`{"count":4,"positions":[4,0,8,12],"truncated":false}`, // not ascending
				`{"count":5,"positions":[0,4,8,12],"truncated":false}`, // count disagrees with positions
				`{"count":4,"positions":[0,4,8,12],"truncated":true}`,  // under the limit yet truncated
			}},
		{"findall-limited", newOp(opFindAll, 2, pat), `{"count":2,"positions":[0,4],"truncated":true}`,
			[]string{
				`{"count":2,"positions":[0,4],"truncated":false}`, // over the limit yet not truncated
				`{"count":2,"positions":[4,8],"truncated":true}`,  // not the first two
				`{"count":4,"positions":[0,4,8,12],"truncated":false}`,
			}},
		{"batch", newOp(opBatch, 10, pat, []byte("tt")),
			`{"results":[{"status":"ok","count":4,"positions":[0,4,8,12]},{"status":"ok","count":0,"positions":[]}]}`,
			[]string{
				`{"results":[{"status":"ok","count":4,"positions":[0,4,8,12]}]}`,                                                 // item missing
				`{"results":[{"status":"ok","count":4,"positions":[0,4,8,12]},{"status":"ok","count":1,"positions":[3]}]}`,       // second item wrong
				`{"results":[{"status":"error","count":0,"positions":[]},{"status":"ok","count":0,"positions":[]}]}`,             // item failed
				`{"results":[{"status":"ok","count":4,"positions":[0,4,8,11]},{"status":"ok","count":0,"positions":[]}]}`,        // first item wrong
				`{"results":[{"status":"ok","count":4,"positions":[0,4,8,12],"truncated":true},{"status":"ok","positions":[]}]}`, // spurious truncation
			}},
	}
	for _, c := range cases {
		ws := orc.expect([]op{c.op})[0]
		if err := verifyBody(c.op, ws, []byte(c.right)); err != nil {
			t.Errorf("%s: right answer rejected: %v", c.name, err)
		}
		for _, body := range c.wrongBodies {
			err := verifyBody(c.op, ws, []byte(body))
			if err == nil {
				t.Errorf("%s: wrong answer accepted: %s", c.name, body)
			} else if !strings.Contains(err.Error(), `"`+string(c.op.pats[0])) && !strings.Contains(err.Error(), `"tt"`) {
				t.Errorf("%s: error does not name the pattern: %v", c.name, err)
			}
		}
	}

	// Exactly limit occurrences: the engine may or may not flag
	// truncation, and the checker takes both.
	exact := newOp(opFindAll, 4, pat)
	ws := orc.expect([]op{exact})[0]
	for _, body := range []string{
		`{"count":4,"positions":[0,4,8,12],"truncated":true}`,
		`{"count":4,"positions":[0,4,8,12],"truncated":false}`,
	} {
		if err := verifyBody(exact, ws, []byte(body)); err != nil {
			t.Errorf("exactly limit occurrences: %s rejected: %v", body, err)
		}
	}
}

// TestOracleAgreesWithIndex runs real queries of every kind through the
// in-process checker: the suffix-array oracle and the index agree.
func TestOracleAgreesWithIndex(t *testing.T) {
	text := testText(t)
	orc := newOracle(text)
	idx := spine.Build(text)
	ops := genIngestQueries(newGenerator(5, "ingest", text), 200)
	for i, w := range orc.expect(ops) {
		res, err := runOp(context.Background(), idx, ops[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyResult(ops[i], 0, w[0], res[0]); err != nil {
			t.Error(err)
		}
	}
	// And a wrong in-process answer is caught.
	o := newOp(opCount, 0, text[100:112])
	w := orc.answer(o.pats[0], 0, false)
	if err := verifyResult(o, 0, w, spine.QueryResult{Count: w.count + 1, Found: true}); err == nil {
		t.Error("wrong in-process count accepted")
	}
}

func TestQuantileExact(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // 1..100 ms, unsorted
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	s = s.sorted()
	for _, c := range []struct {
		q    float64
		want time.Duration
		ok   bool
	}{
		{0.50, 50 * time.Millisecond, true},
		{0.90, 90 * time.Millisecond, true}, // exactly ten beyond
		{0.91, 0, false},                    // nine beyond
		{0.99, 0, false},
		{0.01, 1 * time.Millisecond, true},
	} {
		got, ok := s.quantile(c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("quantile(%v) = %v, %v; want %v, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := samples(nil).quantile(0.5); ok {
		t.Error("quantile of no samples reported")
	}
	// The median needs no samples beyond it; a tail does.
	three := samples{1, 2, 3}
	if d, ok := three.quantile(0.5); !ok || d != 2 {
		t.Errorf("median of three = %v, %v", d, ok)
	}
	// p99 needs 1000 samples for its ten beyond.
	if _, ok := make(samples, 999).quantile(0.99); ok {
		t.Error("p99 of 999 samples reported")
	}
	if _, ok := make(samples, 1000).quantile(0.99); !ok {
		t.Error("p99 of 1000 samples refused")
	}
	if rd := make(samples, 999).quantileIn(0.99, time.Millisecond); rd.ok || rd.n != 999 {
		t.Errorf("refused reading = %+v, want not ok with n=999", rd)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	text := testText(t)
	for _, w := range workloads {
		if w.gen == nil {
			continue
		}
		gen := func(seed int64) []op { return w.gen(newGenerator(seed, w.Name, text), 400) }
		a, b, other := gen(1), gen(1), gen(2)
		if scheduleHash(a) != scheduleHash(b) {
			t.Errorf("%s: same seed, different schedules", w.Name)
		}
		if scheduleHash(a) == scheduleHash(other) {
			t.Errorf("%s: different seeds, same schedule", w.Name)
		}
		if !reflect.DeepEqual(a[0].pats, b[0].pats) || a[0].path != b[0].path {
			t.Errorf("%s: same seed, different first op", w.Name)
		}
		if w.Name == "zipf" {
			continue // repeats are the point
		}
		seen := map[string]bool{}
		for _, o := range a {
			for _, p := range o.pats {
				if seen[string(p)] {
					t.Fatalf("%s: pattern %q reused where distinct is promised", w.Name, p)
				}
				seen[string(p)] = true
			}
		}
	}
	// Workloads draw from different streams of one seed.
	if scheduleHash(genScan(newGenerator(1, "scan", text), 50)) == scheduleHash(genScan(newGenerator(1, "other", text), 50)) {
		t.Error("generator stream does not depend on the workload name")
	}
}

func TestZipfRepeatsAndAbsents(t *testing.T) {
	text := testText(t)
	ops := genZipf(newGenerator(1, "zipf", text), 5_000)
	orc := newOracle(text)
	count := map[string]int{}
	absent := 0
	kinds := map[opKind]int{}
	for i, w := range orc.expect(ops) {
		count[string(ops[i].pats[0])]++
		kinds[ops[i].kind]++
		if w[0].count == 0 {
			absent++
		}
	}
	if len(count) >= len(ops)*9/10 {
		t.Errorf("%d distinct patterns in %d ops: no skew", len(count), len(ops))
	}
	if absent < len(ops)*15/100 || absent > len(ops)*25/100 {
		t.Errorf("%d of %d ops absent, want about a fifth", absent, len(ops))
	}
	if kinds[opContains] < kinds[opFind] || kinds[opFind] < kinds[opCount] || kinds[opBatch] != 0 {
		t.Errorf("kind mix %v, want contains 5 : find 2 : findall 2 : count 1", kinds)
	}
}

// TestSpanQuerierUnderCached pins the trace's shape: a miss leaves an
// engine span under the current parent, a hit leaves none.
func TestSpanQuerierUnderCached(t *testing.T) {
	text := testText(t)
	rec := newSpanRecorder()
	sq := &spanQuerier{inner: spine.Build(text), rec: rec}
	c, err := spine.Cached(sq, spine.CacheConfig{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	o := newOp(opCount, 0, text[500:516])
	for pass, wantEngine := range []bool{true, false} {
		parent := rec.reserve("cached", 0, pass, time.Now())
		sq.parent, sq.op, sq.last = parent, pass, 0
		if _, err := runOp(context.Background(), c, o); err != nil {
			t.Fatal(err)
		}
		rec.finish(parent, time.Now())
		if (sq.last != 0) != wantEngine {
			t.Fatalf("pass %d: engine span recorded = %v, want %v", pass, sq.last != 0, wantEngine)
		}
		if wantEngine {
			if eng := rec.spans[sq.last-1]; eng.Name != "engine" || eng.Parent != parent || eng.Op != pass {
				t.Errorf("engine span = %+v, want parent %d op %d", eng, parent, pass)
			}
		}
	}
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
}

// TestQuietHalf: a pass disturbed for under half its length reads as
// an undisturbed one; the windows have equal counts; the faster half is
// what is pooled.
func TestQuietHalf(t *testing.T) {
	pass := func(slowFrom, slowTo int) []opSample {
		var ss []opSample
		var now time.Duration
		for i := 0; i < 3200; i++ {
			lat := time.Millisecond
			if i >= slowFrom && i < slowTo {
				lat = 2 * time.Millisecond
			}
			now += lat
			ss = append(ss, opSample{op: i, latency: lat, end: now})
		}
		return ss
	}
	for _, tc := range []struct{ from, to int }{{0, 0}, {400, 1500}, {0, 1600}} {
		ws := windowsOf(pass(tc.from, tc.to))
		if len(ws) != runWindows {
			t.Fatalf("%d windows, want %d", len(ws), runWindows)
		}
		for _, w := range ws {
			if len(w.lat) != 3200/runWindows {
				t.Fatalf("window of %d operations, want %d", len(w.lat), 3200/runWindows)
			}
		}
		rate, lat := quietHalf(ws)
		p50, _ := lat.quantile(0.5)
		p95, ok := lat.quantile(0.95)
		if math.Abs(rate-1000) > 1e-6 || p50 != time.Millisecond || p95 != time.Millisecond || !ok || len(lat) != 1600 {
			t.Errorf("slow %d..%d: rate %v, p50 %v, p95 %v of %d samples; want the undisturbed 1000/s and 1ms of 1600", tc.from, tc.to, rate, p50, p95, len(lat))
		}
	}
	// Disturbed for longer than half, it shows.
	if rate, _ := quietHalf(windowsOf(pass(0, 2000))); rate > 950 {
		t.Errorf("rate %v with 5/8 of the pass slow", rate)
	}
	// Too short to cut up: one window, everything.
	if ws := windowsOf(pass(0, 0)[:20]); len(ws) != 1 || len(ws[0].lat) != 20 {
		t.Errorf("short pass cut into %d windows", len(ws))
	}
	// Rounds of unequal number (ingest): the faster half, rounded up.
	rounds := []window{{wall: 3 * time.Second, lat: make(samples, 3)}, {wall: time.Second, lat: make(samples, 3)}, {wall: 2 * time.Second, lat: make(samples, 3)}}
	if rate, lat := quietHalf(rounds); len(lat) != 6 || math.Abs(rate-2) > 1e-9 {
		t.Errorf("three rounds: rate %v over %d samples, want 2/s over 6", rate, len(lat))
	}
}

// TestScanBlocksAreBalanced: every block of a scan schedule holds each
// (length, kind) pair once, and a spread offset lies in its stretch.
func TestScanBlocksAreBalanced(t *testing.T) {
	text := testText(t)
	block := 2 * len(patternLens)
	g := newGenerator(5, "scan", text)
	ops := genScan(g, 10*block)
	for b := 0; b < 10; b++ {
		pairs := map[[2]int]bool{}
		for _, o := range ops[b*block : (b+1)*block] {
			pairs[[2]int{len(o.pats[0]), int(o.kind)}] = true
		}
		if len(pairs) != block {
			t.Fatalf("block %d holds %d distinct (length, kind) pairs, want %d", b, len(pairs), block)
		}
	}
	for i := 0; i < block; i++ {
		off := g.spreadOffset(64, i, block)
		if lo, hi := i*len(text)/block-64, (i+1)*len(text)/block; off < lo || off+64 > hi+64 {
			t.Errorf("stretch %d of %d: offset %d outside %d..%d", i, block, off, lo, hi)
		}
	}
}

// TestConnReadsEveryFraming drives the hand-written HTTP client against
// a net/http server over one kept-alive connection: a short reply with a
// Content-Length, a long one the server sends chunked, an error status
// and a POST, each followed by the next on the same socket.
func TestConnReadsEveryFraming(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 4096) // beyond net/http's 2 KiB buffer: chunked
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/count", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"count":3}`) })
	mux.HandleFunc("/v1/findall", func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < len(long); i += 5000 { // several writes, several chunks
			io.WriteString(w, long[i:min(i+5000, len(long))])
			w.(http.Flusher).Flush()
		}
	})
	mux.HandleFunc("/v1/contains", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "no", http.StatusTooManyRequests) })
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) { io.Copy(w, r.Body) })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c, err := dial(srv.URL, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer c.c.Close()
	batch := newOp(opBatch, 7, []byte("acgt"), []byte("ttga"))
	for round := 0; round < 3; round++ {
		for _, tc := range []struct {
			o      op
			status int
			body   string
		}{
			{newOp(opCount, 0, []byte("acgt")), 200, `{"count":3}`},
			{newOp(opFindAll, 10, []byte("acgt")), 200, long},
			{newOp(opContains, 0, []byte("acgt")), 429, "no\n"},
			{batch, 200, string(batch.body)},
		} {
			status, body, err := c.do(tc.o.wire)
			if err != nil || status != tc.status || string(body) != tc.body {
				t.Fatalf("round %d %s: status %d, %d body bytes, err %v; want %d, %d bytes", round, tc.o.path, status, len(body), err, tc.status, len(tc.body))
			}
		}
	}
	if n, ok := number([]byte("1f"), 16); !ok || n != 31 {
		t.Errorf("number(1f, 16) = %d, %v", n, ok)
	}
	if _, ok := number([]byte("1f"), 10); ok {
		t.Error("number(1f, 10) accepted")
	}
	if _, ok := number(nil, 10); ok {
		t.Error("number of nothing accepted")
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and spec.go in step
// and inside the pipeline's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec says %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n json %v\n spec %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n json %v\n spec %v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec has %d", len(doc.Workloads), len(workloads))
	}
	names := map[string]bool{}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d = %q / %q, spec has %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		names[w.Name] = true
	}
	sawSetup := false
	for _, m := range append(append([]metricSpec{}, doc.EndToEnd...), doc.PerLayer...) {
		if names[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		names[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q / unit %q too long", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v over 0.25", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 {
			t.Errorf("end-to-end metric %q has no bound", m.Name)
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric")
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 || len(doc.Workloads) > 8 {
		t.Error("more entries than the contract allows")
	}
}
