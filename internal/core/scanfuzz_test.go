package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/suffixtree"
)

// hex16 is the 16-letter alphabet of fuzzInput's wide mode; it contains
// the DNA letters, so the appended tail of FuzzScanEquivalence stays
// inside it.
const hex16Letters = "acgtbdefhijklmno"

var hex16 = seq.NewAlphabet([]byte(hex16Letters))

// fuzzInput turns raw fuzz bytes into a text, a pattern and their
// alphabet, one mode per decode arm of the compact probe:
//
//	mode%3 == 0: DNA via dnaFrom. Fan-out stays <= 3, so the spill table
//	  is empty and every untagged ref reads the probe's dummy row.
//	mode%3 == 1: 16 letters. Nodes with more than three ribs exist and
//	  spill, so shape-0 rows are decoded.
//	mode%3 == 2: DNA x·x with |x| > 65535 and a prefix of x of 65530 to
//	  65545 characters as the pattern: the second copy's LELs overflow
//	  the 2-byte field and the threshold straddles the sentinel. The raw
//	  bytes only pick the lengths; ok is false unless they are short.
func fuzzInput(rawText, rawPat []byte, mode uint8) (text, pat []byte, alpha *seq.Alphabet, ok bool) {
	if len(rawText) > 4096 || len(rawPat) > 160 {
		return nil, nil, nil, false
	}
	switch mode % 3 {
	case 1:
		wide := func(raw []byte) []byte {
			s := make([]byte, len(raw))
			for i, b := range raw {
				s[i] = hex16Letters[b%16]
			}
			return s
		}
		return wide(rawText), wide(rawPat), hex16, true
	case 2:
		if len(rawText) > 64 {
			return nil, nil, nil, false
		}
		x := randDNA(rand.New(rand.NewSource(int64(len(rawText)))), 65550+len(rawText))
		return append(append([]byte{}, x...), x...), x[:65530+len(rawPat)%16], seq.DNA, true
	}
	return dnaFrom(rawText), dnaFrom(rawPat), seq.DNA, true
}

// FuzzScanEquivalence differentially tests the block-skip occurrence
// scan: on the same inputs it must agree with the scalar oracle scan
// (SetBlockSkip(false)) and with an independent suffix tree, on both
// layouts, including limit/truncation behavior, bounded counting, and
// appends after the initial build (the online block fold). Seeds pin
// text and pattern lengths straddling the 64-node block boundary and
// each decode arm of the compact probe (see fuzzInput).
// `go test` runs the corpus; `go test -fuzz=FuzzScanEquivalence` mines.
func FuzzScanEquivalence(f *testing.F) {
	f.Add([]byte("abababab"), []byte("ab"), uint8(0), uint8(3), uint8(0))
	f.Add([]byte("aaccacaaca"), []byte("ca"), uint8(5), uint8(0), uint8(0))
	f.Add(repeatStr("acgt", 16), []byte("acgtacgt"), uint8(1), uint8(2), uint8(0)) // 64 chars: one exact block
	f.Add(repeatStr("acca", 33), []byte("cca"), uint8(63), uint8(1), uint8(0))     // 132 chars: boundary straddle
	f.Add(repeatStr("a", 65), []byte("aaa"), uint8(64), uint8(4), uint8(0))        // runs cross the block edge
	f.Add(repeatStr("gattaca", 40), repeatStr("gattaca", 10), uint8(2), uint8(0), uint8(0))
	// 128 chars, two exact blocks: occurrences end on node 64 and node
	// 128 (bit 63 of a candidate mask) resp. node 65 (bit 0).
	f.Add(repeatStr("acgtacgg", 16), []byte("acgg"), uint8(0), uint8(2), uint8(0))
	f.Add(repeatStr("acgtacgg", 16), []byte("gga"), uint8(0), uint8(3), uint8(0))
	// The probe's decode arms: spilled nodes (the 'a' after which seven
	// different letters follow has six ribs), plain DNA mixing untagged
	// and tagged refs over an empty spill table, and overflowed LELs.
	f.Add(repeatStr("abacadaeafagah", 12), []byte("ab"), uint8(3), uint8(0), uint8(1))
	f.Add(repeatStr("aabacadbbcbdccd", 9), []byte("da"), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("acgtacg"), []byte("acgtacgtac"), uint8(2), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, rawText, rawPat []byte, extraRaw, limRaw, mode uint8) {
		text, pat, alpha, ok := fuzzInput(rawText, rawPat, mode)
		if !ok {
			return
		}
		idx := Build(text)
		// Extend after the build: the appended nodes must fold into the
		// skip index exactly as if built in one shot.
		for i := 0; i < int(extraRaw)%70; i++ {
			c := "acgt"[(int(extraRaw)+i*7)%4]
			idx.Append(c)
			text = append(text, c)
		}
		if want := buildBlocksOn(idx); !equalBlocks(idx.blocks, want) {
			t.Fatal("online blocks diverge from rebuild after appends")
		}

		st, err := suffixtree.Build(text, 0xFF)
		if err != nil {
			t.Fatalf("suffixtree.Build: %v", err)
		}
		oracle := st.FindAll(pat)

		prev := SetBlockSkip(false)
		defer SetBlockSkip(prev)
		scalar := idx.FindAll(pat)
		scalarCount := idx.Count(pat)
		SetBlockSkip(true)
		accel := idx.FindAll(pat)
		accelCount := idx.Count(pat)

		if !equalInts(accel, scalar) {
			t.Fatalf("FindAll(%q in %q): block-skip %v != scalar %v", pat, text, accel, scalar)
		}
		if !equalInts(accel, oracle) {
			t.Fatalf("FindAll(%q in %q): block-skip %v != suffix tree %v", pat, text, accel, oracle)
		}
		if accelCount != scalarCount || accelCount != len(oracle) {
			t.Fatalf("Count(%q): block-skip %d, scalar %d, suffix tree %d", pat, accelCount, scalarCount, len(oracle))
		}

		// Streaming must yield the same sequence and honor early stop.
		var streamed []int
		idx.ForEachOccurrence(pat, func(start int) bool {
			streamed = append(streamed, start)
			return true
		})
		if !equalInts(streamed, oracle) {
			t.Fatalf("ForEachOccurrence(%q) = %v, want %v", pat, streamed, oracle)
		}

		// Limit/truncation parity between the two scan paths.
		ctx := context.Background()
		limit := int(limRaw) % 5
		SetBlockSkip(false)
		rs, err := idx.FindAllCtx(ctx, pat, limit)
		if err != nil {
			t.Fatal(err)
		}
		SetBlockSkip(true)
		ra, err := idx.FindAllCtx(ctx, pat, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(ra.Positions, rs.Positions) || ra.Truncated != rs.Truncated {
			t.Fatalf("FindAllCtx(%q, limit=%d): block-skip (%v, %v) != scalar (%v, %v)",
				pat, limit, ra.Positions, ra.Truncated, rs.Positions, rs.Truncated)
		}

		// Bounded counting agrees with filtering the oracle's positions.
		maxStart := int(limRaw)
		wantBounded := 0
		for _, pos := range oracle {
			if pos < maxStart {
				wantBounded++
			}
		}
		if got, _, err := idx.CountPrefixCtx(ctx, pat, maxStart); err != nil || got != wantBounded {
			t.Fatalf("CountPrefixCtx(%q, %d) = %d, %v; want %d", pat, maxStart, got, err, wantBounded)
		}

		// Compact layout: same equivalences through the frozen tables.
		comp, err := Freeze(idx, alpha)
		if err != nil {
			t.Fatalf("Freeze: %v", err)
		}
		if got := comp.FindAll(pat); !equalInts(got, oracle) {
			t.Fatalf("compact FindAll(%q) = %v, want %v", pat, got, oracle)
		}
		if got := comp.Count(pat); got != len(oracle) {
			t.Fatalf("compact Count(%q) = %d, want %d", pat, got, len(oracle))
		}
		SetBlockSkip(false)
		if got := comp.FindAll(pat); !equalInts(got, oracle) {
			t.Fatalf("compact scalar FindAll(%q) = %v, want %v", pat, got, oracle)
		}
		SetBlockSkip(true)
	})
}

func repeatStr(s string, n int) []byte {
	out := make([]byte, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return out
}
