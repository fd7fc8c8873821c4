package spine

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// FuzzQueryBatch drives the batch pipeline from fuzz inputs: the first
// argument becomes the indexed text, the second splits on 0xFF into a
// multi-pattern batch (empty segments give empty patterns, repeated
// segments give duplicates, long segments exceed the sharded
// maxPattern). Every item must match the per-pattern sequential oracle
// on all three index flavors.
//
// `go test` runs the seed corpus; `go test -fuzz=FuzzQueryBatch` mines
// (make check runs a 10s smoke).
func FuzzQueryBatch(f *testing.F) {
	f.Add([]byte("aaccacaaca"), []byte("ac\xffca\xff\xffac\xffacaacaacaa"), uint8(0))
	f.Add([]byte("abababab"), []byte("ba\xffab\xffba"), uint8(3))
	f.Add([]byte(""), []byte("a\xff"), uint8(1))
	f.Add([]byte("acgtacgtacgt"), []byte("acgt\xffzz\xffacgt\xffg"), uint8(2))
	f.Fuzz(func(t *testing.T, rawText, rawPats []byte, rawLimit uint8) {
		if len(rawText) > 2000 || len(rawPats) > 512 {
			return
		}
		text := fuzzDNA(rawText)
		var patterns [][]byte
		for _, seg := range bytes.Split(rawPats, []byte{0xFF}) {
			if len(patterns) >= 16 {
				break
			}
			if len(seg) > 64 {
				seg = seg[:64]
			}
			patterns = append(patterns, fuzzPattern(seg))
		}
		limit := int(rawLimit % 8) // 0 = unlimited, else small caps
		idx := Build(text)
		comp, err := idx.Compact(DNA)
		if err != nil {
			t.Fatalf("Compact(%q): %v", text, err)
		}
		const shardSize, maxPat = 16, 8
		sh, err := BuildSharded(text, shardSize, maxPat, 2)
		if err != nil {
			t.Fatalf("BuildSharded(%q): %v", text, err)
		}
		ctx := context.Background()
		for name, q := range map[string]legacyQuerier{"index": idx, "compact": comp, "sharded": sh} {
			results, err := q.QueryBatch(ctx, patterns, BatchOptions{Limit: limit})
			if err != nil {
				t.Fatalf("%s: QueryBatch: %v", name, err)
			}
			if len(results) != len(patterns) {
				t.Fatalf("%s: %d results for %d patterns", name, len(results), len(patterns))
			}
			for i, p := range patterns {
				want, wantErr := q.FindAllLimitContext(ctx, p, limit)
				got := results[i]
				if (got.Err == nil) != (wantErr == nil) {
					t.Fatalf("%s pattern %q: batch Err %v vs sequential %v", name, p, got.Err, wantErr)
				}
				if wantErr != nil {
					if !errors.Is(got.Err, ErrPatternTooLong) {
						t.Fatalf("%s pattern %q: Err = %v, want ErrPatternTooLong", name, p, got.Err)
					}
					continue
				}
				if got.Truncated != want.Truncated || len(got.Positions) != len(want.Positions) {
					t.Fatalf("%s pattern %q limit %d: got %v/%v, want %v/%v",
						name, p, limit, got.Positions, got.Truncated, want.Positions, want.Truncated)
				}
				for j := range want.Positions {
					if got.Positions[j] != want.Positions[j] {
						t.Fatalf("%s pattern %q: %v, want %v", name, p, got.Positions, want.Positions)
					}
				}
			}
		}
	})
}

// FuzzCacheEquivalence drives the serving cache from fuzz inputs: the
// same query stream runs against a raw sharded index, a Cached wrapper
// with the negative filter, and a Cached wrapper without it. All three
// must agree on every semantic field — the negative filter may never
// produce a false negative, and a warm cache entry must answer exactly
// like the index would, whichever kind of request primed it: each
// pattern is asked every kind, in an order the input rotates, and the
// second round asks findall at a different limit than the first.
//
// `go test` runs the seed corpus; make check runs a 10s smoke.
func FuzzCacheEquivalence(f *testing.F) {
	f.Add([]byte("aaccacaacaggtacca"), []byte("ac\xffzzzz\xffac\xffcaacagg"), uint8(0))
	f.Add([]byte("acgtacgtacgtacgt"), []byte("acgt\xffttttt\xffacgt"), uint8(2))
	f.Add([]byte("aaaaaaaa"), []byte("\xffa\xffaaaaaaaaaaaaaaaaa"), uint8(1))
	// One pattern asked repeatedly, kinds rotated (bits 3-4), limits at,
	// below and above its four occurrences.
	f.Add([]byte("acgtacgtacgtacgt"), []byte("acgt\xffacgt\xffcgta\xffacgt"), uint8(4+8))
	f.Add([]byte("acgtacgtacgtacgt"), []byte("acgt\xffacgt\xffacgt"), uint8(3+16))
	f.Add([]byte("acgtacgtacgtacgt"), []byte("gtac\xffgtac\xffgtacg\xffgtac"), uint8(5+24))
	f.Add([]byte("aaccacaacaggtacca"), []byte("acca\xffzzzz\xffacca\xffzzzz"), uint8(2+8))
	f.Fuzz(func(t *testing.T, rawText, rawPats []byte, rawLimit uint8) {
		if len(rawText) == 0 || len(rawText) > 2000 || len(rawPats) > 512 {
			return
		}
		text := fuzzDNA(rawText)
		var patterns [][]byte
		for _, seg := range bytes.Split(rawPats, []byte{0xFF}) {
			if len(patterns) >= 12 {
				break
			}
			if len(seg) > 32 {
				seg = seg[:32]
			}
			patterns = append(patterns, fuzzPattern(seg))
		}
		limit := int(rawLimit % 8)
		sh, err := BuildSharded(text, 16, 8, 2)
		if err != nil {
			t.Fatalf("BuildSharded(%q): %v", text, err)
		}
		cached, err := Cached(sh, CacheConfig{MaxBytes: 1 << 16, NegFilterQ: 4})
		if err != nil {
			t.Fatalf("Cached: %v", err)
		}
		plain, err := Cached(sh, CacheConfig{MaxBytes: 1 << 16, DisableNegFilter: true})
		if err != nil {
			t.Fatalf("Cached (no filter): %v", err)
		}
		ctx := context.Background()
		// Two rounds so the second answers from warm cache entries.
		for round := 0; round < 2; round++ {
			for i, p := range patterns {
				for k := 0; k < 4; k++ {
					kind := QueryKind((k + i + int(rawLimit>>3)) % 4)
					opts := QueryOptions{Kind: kind, Limit: (limit + round*(i+1)) % 8}
					want, werr := sh.Query(ctx, p, opts)
					for name, q := range map[string]Querier{"negfilter": cached, "cacheonly": plain} {
						got, gerr := q.Query(ctx, p, opts)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("%s %v %q: err %v vs raw %v", name, kind, p, gerr, werr)
						}
						if werr != nil {
							if !errors.Is(gerr, ErrPatternTooLong) {
								t.Fatalf("%s %v %q: err = %v", name, kind, p, gerr)
							}
							continue
						}
						if got.Found != want.Found || got.Position != want.Position ||
							got.Count != want.Count || got.Truncated != want.Truncated ||
							len(got.Positions) != len(want.Positions) {
							t.Fatalf("%s %v %q round %d: got %+v, want %+v", name, kind, p, round, got, want)
						}
						for j := range want.Positions {
							if got.Positions[j] != want.Positions[j] {
								t.Fatalf("%s %v %q: positions %v, want %v", name, kind, p, got.Positions, want.Positions)
							}
						}
					}
				}
			}
		}
		// Definitive check of the q-gram lemma: a negfilter reject means
		// the pattern truly is absent from the text.
		st := cached.CacheStats()
		if st.NegRejects > 0 {
			for _, p := range patterns {
				res, err := cached.Query(ctx, p, QueryOptions{Kind: KindContains})
				if err != nil {
					continue
				}
				if res.Source == SourceNegFilter && bytes.Contains(text, p) {
					t.Fatalf("false negative: filter rejected %q present in %q", p, text)
				}
			}
		}
	})
}

// fuzzDNA maps arbitrary bytes onto the DNA alphabet so the index
// structures under test actually occur.
func fuzzDNA(raw []byte) []byte {
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = "acgt"[b%4]
	}
	return out
}

// fuzzPattern maps a fuzz segment to mostly-DNA letters with an
// occasional out-of-alphabet byte, exercising the compact layout's
// failed-encode path.
func fuzzPattern(seg []byte) []byte {
	out := make([]byte, len(seg))
	for i, b := range seg {
		if b%7 == 6 {
			out[i] = 'z'
			continue
		}
		out[i] = "acgt"[b%4]
	}
	return out
}
