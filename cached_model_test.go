package spine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// cacheOp is one request of the cache model tests: a single Query of a
// kind, or a one-item QueryBatch, at a limit.
type cacheOp struct {
	kind    QueryKind
	limit   int
	batch   bool
	noCache bool
}

func (o cacheOp) String() string {
	switch {
	case o.batch:
		return fmt.Sprintf("batch(limit %d)", o.limit)
	case o.noCache:
		return fmt.Sprintf("nocache %s(limit %d)", o.kind, o.limit)
	default:
		return fmt.Sprintf("%s(limit %d)", o.kind, o.limit)
	}
}

// run issues o for p against q.
func (o cacheOp) run(t *testing.T, q Querier, p []byte) QueryResult {
	t.Helper()
	ctx := context.Background()
	if o.batch {
		res, err := q.QueryBatch(ctx, [][]byte{p}, BatchOptions{Limit: o.limit})
		if err != nil || res[0].Err != nil {
			t.Fatalf("%v %q: %v / %v", o, p, err, res[0].Err)
		}
		return res[0]
	}
	res, err := q.Query(ctx, p, QueryOptions{Kind: o.kind, Limit: o.limit, NoCache: o.noCache})
	if err != nil {
		t.Fatalf("%v %q: %v", o, p, err)
	}
	return res
}

// opsFor lists every request shape worth telling apart for a pattern of
// n occurrences: the four kinds, findall at the limits around n, and the
// batch twin of each findall.
func opsFor(n int) []cacheOp {
	ops := []cacheOp{{kind: KindContains}, {kind: KindFind}, {kind: KindCount}}
	seen := map[int]bool{}
	for _, limit := range []int{0, 1, n - 1, n, n + 1, 100} {
		if limit < 0 || seen[limit] {
			continue
		}
		seen[limit] = true
		ops = append(ops, cacheOp{kind: KindFindAll, limit: limit}, cacheOp{kind: KindFindAll, limit: limit, batch: true})
	}
	return ops
}

// modelText has patterns of every occurrence count the derivation rules
// distinguish, one of them ("ggc") ending at the last character, where
// the engine's Truncated for exactly-limit answers flips.
var modelText = []byte("aaccacaacaggtaccattgacaggaaccacaacaggtaccaaccacatggc")

var modelPatterns = []string{"zz", "ttga", "ggta", "acca", "ca", "a", "ggc", "catg", "tttt", "cgcg"}

// modelFlavors builds every index flavor over text.
func modelFlavors(t *testing.T, text []byte) map[string]Querier {
	t.Helper()
	idx := Build(text)
	comp, err := idx.Compact(DNA)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildSharded(text, 16, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Querier{"index": idx, "compact": comp, "sharded": sh}
}

// TestCachedModelArrivalOrders is the exhaustive half of the cache's
// differential check: for every flavor and pattern, every ordered pair
// of requests primes a fresh cache and every request is then asked of
// it. Whatever the pair left in the entry — and whichever of the three
// answers came from it — each answer must be the bare index's.
func TestCachedModelArrivalOrders(t *testing.T) {
	for name, raw := range modelFlavors(t, modelText) {
		derived := int64(0)
		for _, pat := range modelPatterns {
			p := []byte(pat)
			n := 0
			for i := range modelText {
				if bytes.HasPrefix(modelText[i:], p) {
					n++
				}
			}
			ops := opsFor(n)
			want := make([]QueryResult, len(ops))
			for i, o := range ops {
				want[i] = o.run(t, raw, p)
			}
			if want[2].Count != n {
				t.Fatalf("%s: %q occurs %d times, index counts %d", name, pat, n, want[2].Count)
			}
			for a := range ops {
				for b := range ops {
					for c := range ops {
						cq, err := Cached(raw, CacheConfig{MaxBytes: 1 << 16, DisableNegFilter: true})
						if err != nil {
							t.Fatal(err)
						}
						for _, i := range []int{a, b, c} {
							what := fmt.Sprintf("%s %q after %v, %v: %v", name, pat, ops[a], ops[b], ops[i])
							sameAnswer(t, what, ops[i].run(t, cq, p), want[i])
						}
						st := cq.CacheStats()
						if st.Hits+st.Misses != 3 {
							t.Fatalf("%s %q: %d hits + %d misses for 3 requests", name, pat, st.Hits, st.Misses)
						}
						derived += st.Hits
					}
				}
			}
		}
		if derived == 0 {
			t.Fatalf("%s: no request was ever answered from an entry", name)
		}
	}
}

// TestCachedDerivationTable pins which requests an entry answers, so a
// change that quietly turns hits into misses (or guesses the
// undetermined corner) fails here rather than in a benchmark.
func TestCachedDerivationTable(t *testing.T) {
	raw := Build(modelText)
	find, count := cacheOp{kind: KindFind}, cacheOp{kind: KindCount}
	all := func(limit int) cacheOp { return cacheOp{kind: KindFindAll, limit: limit} }
	item := func(limit int) cacheOp { return cacheOp{kind: KindFindAll, limit: limit, batch: true} }
	for _, tc := range []struct {
		pat   string // "acca" occurs 5 times, "zz" never
		prime []cacheOp
		ask   cacheOp
		hit   bool
	}{
		{"acca", []cacheOp{all(0)}, count, true},
		{"acca", []cacheOp{all(0)}, find, true},
		{"acca", []cacheOp{all(0)}, cacheOp{kind: KindContains}, true},
		{"acca", []cacheOp{all(0)}, all(3), true},
		{"acca", []cacheOp{all(0)}, all(100), true},
		{"acca", []cacheOp{all(0)}, item(4), true},
		{"acca", []cacheOp{all(0)}, all(5), false}, // exactly limit occurrences: the engine decides Truncated
		{"acca", []cacheOp{all(100)}, all(0), true},
		{"acca", []cacheOp{item(100)}, count, true},
		{"acca", []cacheOp{all(3)}, all(2), true},
		{"acca", []cacheOp{all(3)}, all(3), true},
		{"acca", []cacheOp{all(3)}, find, true},
		{"acca", []cacheOp{all(3)}, all(4), false},
		{"acca", []cacheOp{all(3)}, all(0), false},
		{"acca", []cacheOp{all(3)}, count, false},
		{"acca", []cacheOp{all(5), count}, all(0), true}, // the count proves the truncated list complete
		{"acca", []cacheOp{count}, all(0), false},
		{"acca", []cacheOp{count}, find, false},
		{"acca", []cacheOp{find}, count, false},
		{"acca", []cacheOp{find, count}, all(1), false},
		{"zz", []cacheOp{find}, count, true},
		{"zz", []cacheOp{find}, all(7), true},
		{"zz", []cacheOp{count}, item(0), true},
		{"zz", []cacheOp{all(2)}, cacheOp{kind: KindContains}, true},
	} {
		cq, err := Cached(raw, CacheConfig{DisableNegFilter: true})
		if err != nil {
			t.Fatal(err)
		}
		p := []byte(tc.pat)
		for _, o := range tc.prime {
			o.run(t, cq, p)
		}
		before := cq.CacheStats()
		got := tc.ask.run(t, cq, p)
		sameAnswer(t, fmt.Sprintf("%q %v then %v", tc.pat, tc.prime, tc.ask), got, tc.ask.run(t, raw, p))
		after := cq.CacheStats()
		if hit := after.Hits == before.Hits+1 && after.Misses == before.Misses; hit != tc.hit || hit != (got.Source == SourceCache) {
			t.Errorf("%q primed with %v: %v hit=%v (source %v), want hit=%v", tc.pat, tc.prime, tc.ask, hit, got.Source, tc.hit)
		}
	}
}

// TestCachedModelRandom is the randomized half: long request sequences
// over a small pattern pool against every flavor, with the negative
// filter on, a budget small enough to evict, multi-item batches, NoCache
// reads and invalidations — on the live index, invalidations that follow
// a real append. Every answer is compared with the bare index.
func TestCachedModelRandom(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		text := append([]byte(nil), modelText...)
		for name, raw := range modelFlavors(t, text) {
			rng := rand.New(rand.NewSource(seed))
			cq, err := Cached(raw, CacheConfig{MaxBytes: 1200, Shards: 1, NegFilterQ: 3})
			if err != nil {
				t.Fatal(err)
			}
			pool := make([][]byte, 0, 16)
			for _, pat := range modelPatterns {
				pool = append(pool, []byte(pat))
			}
			for len(pool) < cap(pool) {
				off := rng.Intn(len(modelText) - 6)
				pool = append(pool, modelText[off:off+1+rng.Intn(6)])
			}
			limits := []int{0, 1, 2, 3, 4, 5, 6, 100}
			for step := 0; step < 1500; step++ {
				p := pool[rng.Intn(len(pool))]
				what := fmt.Sprintf("seed %d %s step %d", seed, name, step)
				switch r := rng.Intn(20); {
				case r == 0:
					if idx, live := raw.(*Index); live && rng.Intn(3) == 0 {
						idx.AppendString(pool[rng.Intn(len(pool))])
					}
					cq.Invalidate()
					if rng.Intn(2) == 0 {
						if err := cq.RebuildNegFilter(); err != nil {
							t.Fatal(err)
						}
					}
				case r < 4:
					pats := make([][]byte, 1+rng.Intn(5))
					lims := make([]int, len(pats))
					for i := range pats {
						pats[i], lims[i] = pool[rng.Intn(len(pool))], limits[rng.Intn(len(limits))]
					}
					want, werr := raw.QueryBatch(ctx, pats, BatchOptions{Limits: lims})
					got, gerr := cq.QueryBatch(ctx, pats, BatchOptions{Limits: lims})
					if werr != nil || gerr != nil {
						t.Fatalf("%s batch: %v / %v", what, gerr, werr)
					}
					for i := range pats {
						sameAnswer(t, fmt.Sprintf("%s batch item %q limit %d", what, pats[i], lims[i]), got[i], want[i])
					}
				default:
					o := cacheOp{kind: QueryKind(rng.Intn(4)), limit: limits[rng.Intn(len(limits))], noCache: r == 4}
					sameAnswer(t, fmt.Sprintf("%s %v %q", what, o, p), o.run(t, cq, p), o.run(t, raw, p))
				}
			}
			st := cq.CacheStats()
			if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 || st.NegRejects == 0 || st.Epoch == 0 {
				t.Fatalf("seed %d %s: a path went unexercised: %+v", seed, name, st)
			}
		}
	}
}

// stubQuerier answers from a table, counts what it is asked, and runs a
// hook in the middle of every Query — the seam the cache tests need
// that a real index does not have.
type stubQuerier struct {
	// occurrences maps a pattern to its positions; missing = absent.
	occurrences func(p []byte) []int
	midQuery    func()
	scanCalls   int // findall/count calls for a pattern that occurs
	calls       int
}

func (s *stubQuerier) Query(_ context.Context, p []byte, opts QueryOptions) (QueryResult, error) {
	occ := s.occurrences(p)
	s.calls++
	if s.midQuery != nil {
		s.midQuery()
	}
	res := QueryResult{Position: -1}
	switch opts.Kind {
	case KindContains, KindFind:
		if len(occ) > 0 {
			res.Found, res.Position = true, occ[0]
		}
	case KindCount:
		res.Count, res.Found = len(occ), len(occ) > 0
	case KindFindAll:
		if opts.Limit > 0 && len(occ) > opts.Limit {
			occ, res.Truncated = occ[:opts.Limit], true
		}
		res.Positions = occ
		res.normalize()
	}
	if res.Found && opts.Kind >= KindFindAll {
		s.scanCalls++
	}
	return res, nil
}

func (s *stubQuerier) QueryBatch(ctx context.Context, patterns [][]byte, opts BatchOptions) ([]QueryResult, error) {
	limits, err := opts.itemLimits(len(patterns))
	if err != nil {
		return nil, err
	}
	out := make([]QueryResult, len(patterns))
	for i, p := range patterns {
		out[i], _ = s.Query(ctx, p, QueryOptions{Kind: KindFindAll, Limit: limits[i]})
	}
	return out, nil
}

func (s *stubQuerier) Len() int { return 1 << 20 }

// TestCachedStaleInsertDropped: an answer computed on the old text must
// not be stored when Invalidate lands while the index is still
// computing it — the insert carries the epoch read before the lookup,
// and the cache drops it once the epoch has moved.
func TestCachedStaleInsertDropped(t *testing.T) {
	ctx := context.Background()
	oldText, newText := map[string][]int{"acgt": {3, 9}}, map[string][]int{"acgt": {1, 2, 3}}
	text := oldText
	stub := &stubQuerier{occurrences: func(p []byte) []int { return text[string(p)] }}
	cq, err := Cached(stub, CacheConfig{DisableNegFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	p := []byte("acgt")
	single := func() QueryResult {
		res, _ := cq.Query(ctx, p, QueryOptions{Kind: KindFindAll})
		return res
	}
	batch := func() QueryResult {
		res, _ := cq.QueryBatch(ctx, [][]byte{p}, BatchOptions{})
		return res[0]
	}
	for name, inFlight := range map[string]func() QueryResult{"query": single, "batch": batch} {
		text = oldText
		cq.Invalidate()
		// The text changes while the index is answering: the answer is
		// the old text's, and the cache is invalidated before it is back.
		stub.midQuery = func() {
			text = newText
			cq.Invalidate()
			stub.midQuery = nil
		}
		if res := inFlight(); res.Count != 2 {
			t.Fatalf("%s in flight: %+v, want the old text's two occurrences", name, res)
		}
		if res := single(); res.Count != 3 || res.Source != SourceScan {
			t.Fatalf("%s: read after the racing Invalidate: %+v; want the new text's three occurrences from the index", name, res)
		}
		if res := single(); res.Count != 3 || res.Source != SourceCache {
			t.Fatalf("%s: repeat read: %+v; want a hit", name, res)
		}
	}
}

// TestCachedZipfReplayScanMisses replays the shape of the benchmark
// suite's zipf workload — Zipf(1.1) over 4 096 present keys, kinds
// contains 5 : find 2 : findall(limit 100) 2 : count 1, a 64 KiB budget,
// a fifth of the operations absent and answered by the negative filter —
// against a stub that counts how often the cache lets a backbone scan
// through. One entry per pattern with scan answers kept longest holds
// that under 6 % of operations; a (pattern, kind, limit)-keyed plain LRU
// lets 9.9 % through. No timing: the count is exact for the seed.
func TestCachedZipfReplayScanMisses(t *testing.T) {
	const keys, ops = 4096, 40_000
	stub := &stubQuerier{occurrences: func(p []byte) []int {
		// Key i occurs 1 + i%3 times.
		i := int(p[0])<<8 | int(p[1])
		occ := make([]int, 1+i%3)
		for j := range occ {
			occ[j] = i*16 + j*5000
		}
		return occ
	}}
	cq, err := Cached(stub, CacheConfig{MaxBytes: 64 << 10, DisableNegFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, keys-1)
	kinds := [10]QueryKind{KindContains, KindContains, KindContains, KindContains, KindContains,
		KindFind, KindFind, KindFindAll, KindFindAll, KindCount}
	key := make([]byte, 12)
	for i := 0; i < ops; i++ {
		if rng.Intn(5) == 0 {
			continue // absent 20-mer: the negative filter's, never the cache's
		}
		k := zipf.Uint64()
		key[0], key[1] = byte(k>>8), byte(k)
		opts := QueryOptions{Kind: kinds[rng.Intn(len(kinds))]}
		if opts.Kind == KindFindAll {
			opts.Limit = 100
		}
		if _, err := cq.Query(context.Background(), key, opts); err != nil {
			t.Fatal(err)
		}
	}
	st := cq.CacheStats()
	if st.ScanMisses != int64(stub.scanCalls) || st.Misses != int64(stub.calls) {
		t.Fatalf("stats %+v disagree with the stub: %d calls, %d scans", st, stub.calls, stub.scanCalls)
	}
	share := float64(stub.scanCalls) / ops
	t.Logf("scan misses %d of %d operations (%.1f%%), hit ratio %.2f, %d entries",
		stub.scanCalls, ops, 100*share, float64(st.Hits)/float64(st.Hits+st.Misses), st.Entries)
	if share > 0.06 {
		t.Fatalf("%.1f%% of operations ran a backbone scan, want <= 6%%", 100*share)
	}
}
