package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/spine-index/spine"
)

// errEnvelope mirrors the unified error shape for decoding in tests.
type errEnvelope struct {
	Error apiError `json:"error"`
}

// TestV1PathsAndDeprecatedAliases: every query endpoint answers under
// /v1/ without deprecation headers; the unversioned alias answers
// identically but carries Deprecation plus a successor-version Link.
func TestV1PathsAndDeprecatedAliases(t *testing.T) {
	ts := testServer(t)
	for _, name := range []string{"contains", "find", "findall", "count"} {
		v1, err := http.Get(ts.URL + "/v1/" + name + "?q=ac")
		if err != nil {
			t.Fatal(err)
		}
		v1Body, _ := io.ReadAll(v1.Body)
		v1.Body.Close()
		if v1.StatusCode != 200 {
			t.Fatalf("/v1/%s: status %d", name, v1.StatusCode)
		}
		if v1.Header.Get("Deprecation") != "" {
			t.Fatalf("/v1/%s carries a Deprecation header", name)
		}
		old, err := http.Get(ts.URL + "/" + name + "?q=ac")
		if err != nil {
			t.Fatal(err)
		}
		oldBody, _ := io.ReadAll(old.Body)
		old.Body.Close()
		if old.StatusCode != 200 {
			t.Fatalf("/%s: status %d", name, old.StatusCode)
		}
		if old.Header.Get("Deprecation") != "true" {
			t.Fatalf("/%s: missing Deprecation header", name)
		}
		if link := old.Header.Get("Link"); link != `</v1/`+name+`>; rel="successor-version"` {
			t.Fatalf("/%s: Link = %q", name, link)
		}
		if string(v1Body) != string(oldBody) {
			t.Fatalf("/%s: alias answered %s, /v1 answered %s", name, oldBody, v1Body)
		}
	}
	// POST aliases carry the headers too.
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`["ac"]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Deprecation") != "true" {
		t.Fatal("/batch alias missing Deprecation header")
	}
	if resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`["ac"]`)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/batch: status %d", resp.StatusCode)
	}
}

// TestUnifiedErrorShape: representative failures across endpoints all
// answer {"error": {"code", "message"}} with stable codes.
func TestUnifiedErrorShape(t *testing.T) {
	app := testApp(t)
	app.cfg.maxPatternLen = 8
	ts := httptest.NewServer(app.mux())
	defer ts.Close()
	shTS, _ := batchServer(t, defaultConfig()) // sharded: no approx capability
	for _, tc := range []struct {
		url    string
		status int
		code   string
	}{
		{ts.URL + "/v1/contains", http.StatusBadRequest, codeBadRequest},
		{ts.URL + "/v1/findall?q=a&limit=0", http.StatusBadRequest, codeBadRequest},
		{ts.URL + "/v1/contains?q=aaaaaaaaa", http.StatusBadRequest, codePatternTooLong},
		{ts.URL + "/v1/approx?q=ac&k=9", http.StatusBadRequest, codeBadRequest},
		{shTS.URL + "/v1/approx?q=ac", http.StatusNotImplemented, codeUnsupported},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		var env errEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("%s: undecodable error body: %v", tc.url, derr)
		}
		if resp.StatusCode != tc.status || env.Error.Code != tc.code || env.Error.Message == "" {
			t.Fatalf("%s: status %d code %q message %q, want %d/%q",
				tc.url, resp.StatusCode, env.Error.Code, env.Error.Message, tc.status, tc.code)
		}
	}
	// A panicking handler answers the same shape with code internal.
	fq := newBlockingQuerier()
	fq.panicky = true
	pts := httptest.NewServer(newQueryServer(fq, defaultConfig()).mux())
	defer pts.Close()
	resp, err := http.Get(pts.URL + "/v1/findall?q=a")
	if err != nil {
		t.Fatal(err)
	}
	var env errEnvelope
	derr := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if derr != nil || resp.StatusCode != http.StatusInternalServerError || env.Error.Code != codeInternal {
		t.Fatalf("panic envelope: status %d, env %+v, decode %v", resp.StatusCode, env, derr)
	}
}

// cachedTestServer fronts a sharded index with the serving cache, the
// way main() wires it.
func cachedTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	text := []byte(strings.Repeat("aaccacaacaggtacca", 64))
	sh, err := spine.BuildSharded(text, 256, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := wrapCache(sh, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newQueryServer(q, defaultConfig()).mux())
	t.Cleanup(ts.Close)
	return ts
}

// TestCachedServing is the end-to-end acceptance check: repeated and
// absent queries through a cache-fronted server surface hit/miss and
// negative-filter counters in both the JSON snapshot and the
// Prometheus exposition, attributed per endpoint.
func TestCachedServing(t *testing.T) {
	ts := cachedTestServer(t)
	var out map[string]any
	// Identical findalls: scan then hits.
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/v1/findall?q=caacagg", &out)
	}
	// Contains on an absent pattern with foreign grams (longer than the
	// auto-selected filter q): rejected scan-free both times, never
	// reaching the cache.
	for i := 0; i < 2; i++ {
		getJSON(t, ts.URL+"/v1/contains?q=zzzzzzzzzzzzzzzz", &out)
	}

	var m struct {
		Cache struct {
			Enabled    bool  `json:"enabled"`
			Hits       int64 `json:"hits"`
			Misses     int64 `json:"misses"`
			ScanMisses int64 `json:"scanMisses"`
			NegRejects int64 `json:"negRejects"`
			Entries    int64 `json:"entries"`
			Bytes      int64 `json:"bytes"`
		} `json:"cache"`
		Endpoints map[string]struct {
			CacheHits   int64 `json:"cacheHits"`
			CacheMisses int64 `json:"cacheMisses"`
		} `json:"endpoints"`
	}
	getJSON(t, ts.URL+"/metrics", &m)
	if !m.Cache.Enabled {
		t.Fatalf("cache section disabled: %+v", m.Cache)
	}
	if m.Cache.Hits != 2 || m.Cache.Misses != 1 || m.Cache.ScanMisses != 1 || m.Cache.NegRejects != 2 {
		t.Fatalf("cache counters = %+v, want hits 2 misses 1 scanMisses 1 negRejects 2", m.Cache)
	}
	if m.Cache.Entries == 0 || m.Cache.Bytes == 0 {
		t.Fatalf("cache size counters degenerate: %+v", m.Cache)
	}
	if ep := m.Endpoints["findall"]; ep.CacheHits != 2 || ep.CacheMisses != 1 {
		t.Fatalf("findall attribution = %+v, want 2 hits 1 miss", ep)
	}
	if ep := m.Endpoints["contains"]; ep.CacheHits != 2 || ep.CacheMisses != 0 {
		t.Fatalf("contains attribution = %+v, want 2 hits (negfilter) 0 misses", ep)
	}

	prom := promBody(t, ts.URL)
	for _, family := range []string{
		"spine_cache_hits_total 2",
		"spine_cache_misses_total 1",
		"spine_cache_scan_misses_total 1",
		"spine_negfilter_rejects_total 2",
		"spine_negfilter_falsepos_total 0",
		`spine_http_cache_hits_total{endpoint="findall"} 2`,
		`spine_http_cache_misses_total{endpoint="findall"} 1`,
	} {
		if !strings.Contains(prom, family) {
			t.Fatalf("prometheus exposition missing %q:\n%s", family, prom)
		}
	}
}

// TestPromCacheFamiliesAlwaysPresent: an uncached server still emits
// the global cache/negfilter families (zeros), so scrapes and
// dashboards never miss the series.
func TestPromCacheFamiliesAlwaysPresent(t *testing.T) {
	ts := testServer(t)
	prom := promBody(t, ts.URL)
	for _, family := range []string{
		"spine_cache_hits_total 0",
		"spine_cache_misses_total 0",
		"spine_cache_scan_misses_total 0",
		"spine_negfilter_rejects_total 0",
		"spine_negfilter_falsepos_total 0",
	} {
		if !strings.Contains(prom, family) {
			t.Fatalf("prometheus exposition missing %q", family)
		}
	}
	// But no per-endpoint attribution noise without a cache in the chain.
	if strings.Contains(prom, "spine_http_cache_") {
		t.Fatal("uncached server emitted per-endpoint cache series")
	}
}

// TestWrapCacheDisabled: -cache-bytes 0 serves the raw querier.
func TestWrapCacheDisabled(t *testing.T) {
	sh, err := spine.BuildSharded([]byte("acgtacgt"), 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := wrapCache(sh, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if q != spine.Querier(sh) {
		t.Fatal("cacheBytes 0 still wrapped the querier")
	}
	if q, err = wrapCache(sh, 1<<16, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.(*spine.CachedQuerier); !ok {
		t.Fatalf("wrapCache returned %T, want *spine.CachedQuerier", q)
	}
}

func promBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
