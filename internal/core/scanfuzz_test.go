package core

import (
	"context"
	"testing"

	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/suffixtree"
)

// FuzzScanEquivalence differentially tests the block-skip occurrence
// scan: on the same inputs it must agree with the scalar oracle scan
// (SetBlockSkip(false)) and with an independent suffix tree, on both
// layouts, including limit/truncation behavior, bounded counting, and
// appends after the initial build (the online block fold). Seeds pin
// text and pattern lengths straddling the 64-node block boundary.
// `go test` runs the corpus; `go test -fuzz=FuzzScanEquivalence` mines.
func FuzzScanEquivalence(f *testing.F) {
	f.Add([]byte("abababab"), []byte("ab"), uint8(0), uint8(3))
	f.Add([]byte("aaccacaaca"), []byte("ca"), uint8(5), uint8(0))
	f.Add(repeatStr("acgt", 16), []byte("acgtacgt"), uint8(1), uint8(2)) // 64 chars: one exact block
	f.Add(repeatStr("acca", 33), []byte("cca"), uint8(63), uint8(1))     // 132 chars: boundary straddle
	f.Add(repeatStr("a", 65), []byte("aaa"), uint8(64), uint8(4))        // runs cross the block edge
	f.Add(repeatStr("gattaca", 40), repeatStr("gattaca", 10), uint8(2), uint8(0))
	// 128 chars, two exact blocks: occurrences end on node 64 and node
	// 128 (bit 63 of a candidate mask) resp. node 65 (bit 0).
	f.Add(repeatStr("acgtacgg", 16), []byte("acgg"), uint8(0), uint8(2))
	f.Add(repeatStr("acgtacgg", 16), []byte("gga"), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, rawText, rawPat []byte, extraRaw, limRaw uint8) {
		if len(rawText) > 4096 || len(rawPat) > 160 {
			return
		}
		text := dnaFrom(rawText)
		pat := dnaFrom(rawPat)
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
		if got, err := idx.CountPrefixCtx(ctx, pat, maxStart); err != nil || got != wantBounded {
			t.Fatalf("CountPrefixCtx(%q, %d) = %d, %v; want %d", pat, maxStart, got, err, wantBounded)
		}

		// Compact layout: same equivalences through the frozen tables.
		comp, err := Freeze(idx, seq.DNA)
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
