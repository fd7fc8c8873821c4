package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spine-index/spine"
	"github.com/spine-index/spine/internal/obs"
)

// TestPreEncodedBodiesMatchEncoder pins every pre-encoded query body to
// the bytes encoding/json produced for the map the handler encoded
// before: key order, number forms, null for nil positions, trailing
// newline.
func TestPreEncodedBodiesMatchEncoder(t *testing.T) {
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const big = 1<<31 + 12345
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"contains true", appendContainsBody(nil, true), encode(map[string]any{"contains": true})},
		{"contains false", appendContainsBody(nil, false), encode(map[string]any{"contains": false})},
		{"find absent", appendFindBody(nil, -1), encode(map[string]any{"position": -1})},
		{"find 0", appendFindBody(nil, 0), encode(map[string]any{"position": 0})},
		{"find above 2^31", appendFindBody(nil, big), encode(map[string]any{"position": big})},
		{"count 0", appendCountBody(nil, 0), encode(map[string]any{"count": 0})},
		{"count large", appendCountBody(nil, 9_876_543_210), encode(map[string]any{"count": 9_876_543_210})},
	}
	for _, pos := range [][]int{nil, {}, {0}, {3, 17, big}} {
		for _, trunc := range []bool{false, true} {
			cases = append(cases, struct {
				name string
				got  []byte
				want string
			}{
				fmt.Sprintf("findall %#v truncated=%v", pos, trunc),
				appendFindAllBody(nil, pos, trunc),
				encode(map[string]any{"count": len(pos), "positions": pos, "truncated": trunc}),
			})
		}
	}
	for _, c := range cases {
		if string(c.got) != c.want {
			t.Errorf("%s: got %q, want %q", c.name, c.got, c.want)
		}
	}
}

// TestQueryValueMatchesParseQuery checks queryValue against
// url.ParseQuery(raw).Get on hand-picked and random query strings.
func TestQueryValueMatchesParseQuery(t *testing.T) {
	raws := []string{
		"", "q", "q=", "q=acgt", "q=a+c", "q=%61%63", "q=%zz&q=ok", "q=a;b&q=c",
		"x=1&q=first&q=second", "%71=esc", "q=a&limit=10", "limit=%31%30&q=g",
		"&&q=x&&", "q=x=y", "q%=bad&q=good", "=v&q=1", "Q=upper",
	}
	rng := rand.New(rand.NewPCG(5, 6))
	const alphabet = "qlimt=&;%+2a06z"
	for i := 0; i < 3000; i++ {
		b := make([]byte, rng.IntN(14))
		for j := range b {
			b[j] = alphabet[rng.IntN(len(alphabet))]
		}
		raws = append(raws, string(b))
	}
	for _, raw := range raws {
		vals, _ := url.ParseQuery(raw)
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		for _, key := range []string{"q", "limit", "Q", ""} {
			if got, want := queryValue(r, key), vals.Get(key); got != want {
				t.Fatalf("queryValue(%q, %q) = %q, want %q", raw, key, got, want)
			}
		}
	}
}

// TestProfLabelsCarryEndpointAndBucket checks that the label set a query
// runs under once its pattern is parsed keeps the endpoint label beside
// plen_bucket (the handler used to replace the set and drop endpoint).
func TestProfLabelsCarryEndpointAndBucket(t *testing.T) {
	labels := func(ctx context.Context) map[string]string {
		m := map[string]string{}
		pprof.ForLabels(ctx, func(k, v string) bool { m[k] = v; return true })
		return m
	}
	pl := newProfLabels("count")
	if got := labels(pl.endpoint); len(got) != 1 || got["endpoint"] != "count" {
		t.Fatalf("endpoint label set = %v", got)
	}
	for n, bucket := range map[int]string{0: "0-16", 16: "0-16", 17: "17-64", 64: "17-64", 65: "65-256",
		256: "65-256", 257: "257-1024", 1024: "257-1024", 1025: "1025+", 1 << 20: "1025+"} {
		got := labels(pl.forPattern(n))
		if len(got) != 2 || got["endpoint"] != "count" || got["plen_bucket"] != bucket {
			t.Errorf("|P|=%d: labels %v, want endpoint=count plen_bucket=%s", n, got, bucket)
		}
	}
}

// TestZeroSinkPipelineAccounting is the default deployment: a pipeline
// with no sinks. Every event still counts as emitted and exported,
// nothing drops, and the RED rollup behind /debug/dash counts exactly
// the requests sent.
func TestZeroSinkPipelineAccounting(t *testing.T) {
	data := bytes.Repeat([]byte("acgtacgtttgcaacg"), 256)
	sh, err := spine.BuildSharded(data, 1024, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	red := obs.NewRED(100 * time.Millisecond)
	pipe := obs.NewPipeline(obs.Config{Buffer: 1, RED: red}) // a queue that small would drop if used
	t.Cleanup(func() { pipe.Close(context.Background()) })
	cfg := defaultConfig()
	cfg.pipeline = pipe
	ts := httptest.NewServer(newQueryServer(sh, cfg).mux())
	t.Cleanup(ts.Close)

	sent := map[string]int{"contains": 7, "find": 5, "count": 3, "findall": 4}
	for ep, n := range sent {
		for i := 0; i < n; i++ {
			resp, err := http.Get(ts.URL + "/v1/" + ep + "?q=acgtac")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`["acgt","ttgc","gg"]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	st := pipe.Stats()
	if st.EmittedQuery != 19 || st.EmittedBatchItems != 3 || st.EmittedShardLegs == 0 {
		t.Fatalf("emit counters: %+v", st)
	}
	if st.Dropped != 0 || st.QueueDepth != 0 || st.Exported != st.EmittedQuery+st.EmittedBatchItems+st.EmittedShardLegs {
		t.Fatalf("zero-sink accounting: %+v", st)
	}

	var dash struct {
		Pipeline obs.PipelineStats `json:"pipeline"`
		Series   []obs.SeriesSnapshot
	}
	getJSON(t, ts.URL+"/debug/dash", &dash)
	if dash.Pipeline != st {
		t.Fatalf("/debug/dash pipeline %+v, want %+v", dash.Pipeline, st)
	}
	got := map[string]int64{}
	for _, s := range dash.Series {
		got[s.Endpoint] += s.Windows["1m"].Count
	}
	for ep, n := range sent {
		if got[ep] != int64(n) {
			t.Errorf("RED %s count = %d, want %d", ep, got[ep], n)
		}
	}
	if got["batch"] != 3 || got["_total"] != 22 {
		t.Errorf("RED batch items %d (want 3), total %d (want 22)", got["batch"], got["_total"])
	}
}

// TestJSONLSinkIdsMatchTraceparent: with a sink attached the exported
// events carry the W3C ids, and they are the ones the response's
// traceparent header told the client.
func TestJSONLSinkIdsMatchTraceparent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := obs.OpenJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	pipe := obs.NewPipeline(obs.Config{RED: obs.NewRED(time.Second)}, sink)
	cfg := defaultConfig()
	cfg.pipeline = pipe
	ts := httptest.NewServer(newQueryServer(spine.Build([]byte("abracadabra")), cfg).mux())
	defer ts.Close()

	const clientTP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	type sent struct {
		reqID, parent string
		echo          obs.TraceParent
	}
	var reqs []sent
	for i, ep := range []string{"contains", "find", "count", "findall"} {
		for _, incoming := range []string{"", clientTP} {
			req, _ := http.NewRequest("GET", ts.URL+"/v1/"+ep+"?q=abra", nil)
			id := fmt.Sprintf("jsonl-%d-%d", i, len(incoming))
			req.Header.Set("X-Request-Id", id)
			if incoming != "" {
				req.Header.Set("traceparent", incoming)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			echo, ok := obs.ParseTraceParent(resp.Header.Get("traceparent"))
			if !ok {
				t.Fatalf("%s: response traceparent %q", ep, resp.Header.Get("traceparent"))
			}
			parent := ""
			if incoming != "" {
				parent = "b7ad6b7169203331"
			}
			reqs = append(reqs, sent{id, parent, echo})
		}
	}
	if err := pipe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	f, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]obs.Event{}
	sc := bufio.NewScanner(bytes.NewReader(f))
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Bytes(), err)
		}
		byID[e.RequestID] = e
	}
	if len(byID) != len(reqs) {
		t.Fatalf("%d events exported, want %d", len(byID), len(reqs))
	}
	for _, r := range reqs {
		e := byID[r.reqID]
		if e.TraceID != r.echo.TraceID.String() || e.SpanID != r.echo.SpanID.String() || e.ParentSpanID != r.parent {
			t.Errorf("%s: event ids trace=%q span=%q parent=%q, response traceparent %s, parent %q",
				r.reqID, e.TraceID, e.SpanID, e.ParentSpanID, r.echo.Header(), r.parent)
		}
		if len(e.Stages) == 0 {
			t.Errorf("%s: exported event lost its stage breakdown", r.reqID)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the log writer's flush timer.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls until out contains want, failing after limit.
func waitFor(t *testing.T, out *syncBuffer, want string, limit time.Duration) time.Duration {
	t.Helper()
	t0 := time.Now()
	for !strings.Contains(out.String(), want) {
		if time.Since(t0) > limit {
			t.Fatalf("%q not written after %v; log:\n%s", want, limit, out.String())
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(t0)
}

// TestBufferedRequestLog pins the request log's flush rule: a line
// waits in the buffer at most the flush interval, a Warn or Error
// record is written before the call returns, and Close loses nothing.
func TestBufferedRequestLog(t *testing.T) {
	const every = 50 * time.Millisecond
	out := &syncBuffer{}
	lw := newLogWriter(out, every)
	logger, err := newLogger("text", lw)
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	logger.Info("buffered line")
	if strings.Contains(out.String(), "buffered line") && time.Since(t0) < every {
		t.Fatal("an Info record was written through before the flush interval")
	}
	waited := waitFor(t, out, "buffered line", every+2*time.Second)
	t.Logf("Info line reached the writer after %v (interval %v)", waited, every)

	for _, level := range []slog.Level{slog.LevelWarn, slog.LevelError} {
		msg := "urgent " + level.String()
		logger.Log(context.Background(), level, msg)
		if !strings.Contains(out.String(), msg) {
			t.Fatalf("%s record not written at once", level)
		}
	}

	// A panic's line is on the writer by the time the 500 is.
	fq := newBlockingQuerier()
	fq.panicky = true
	cfg := defaultConfig()
	cfg.logger = logger
	ts := httptest.NewServer(newQueryServer(fq, cfg).mux())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/findall?q=a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(out.String(), "msg=panic") {
		t.Fatalf("panic line not flushed with the response; log:\n%s", out.String())
	}

	// Nothing is lost at drain: every line of a concurrent burst is on
	// the writer after Close, and writes after Close go straight through.
	const writers, lines = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				logger.Info("burst", slog.Int("g", g), slog.Int("i", i))
			}
		}(g)
	}
	wg.Wait()
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "msg=burst"); n != writers*lines {
		t.Fatalf("%d burst lines after Close, want %d", n, writers*lines)
	}
	logger.Info("after close")
	if !strings.Contains(out.String(), "after close") {
		t.Fatal("a write after Close was held back")
	}
}
