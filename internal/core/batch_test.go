package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/trace"
)

// batchInputs descends each pattern and returns the scan inputs for the
// ones that occur, plus their indices into patterns.
func batchInputs(t *testing.T, idx *Index, patterns [][]byte) (firsts, lens []int32, which []int) {
	t.Helper()
	for i, p := range patterns {
		first, ok := idx.EndNode(p)
		if !ok {
			continue
		}
		firsts = append(firsts, first)
		lens = append(lens, int32(len(p)))
		which = append(which, i)
	}
	return firsts, lens, which
}

// TestScanManyLimitCtxMatchesSingleQueries is the core parity contract:
// for every pattern and limit, the batched scan's ends and truncation
// equal the single-query FindAllCtx outcome.
func TestScanManyLimitCtxMatchesSingleQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	text := make([]byte, 0, 600)
	for len(text) < 600 {
		text = append(text, "acgt"[rng.Intn(3)]) // 3-letter slice: dense repeats
	}
	idx := Build(text)
	patterns := [][]byte{
		[]byte("a"), []byte("ac"), []byte("ca"), []byte("acg"),
		[]byte("gg"), []byte("t"), // likely absent
		text[10:18], text[100:103], text[0:1],
	}
	ctx := context.Background()
	for _, limit := range []int{0, 1, 2, 3, 7, 1000} {
		firsts, lens, which := batchInputs(t, idx, patterns)
		limits := make([]int, len(firsts))
		for i := range limits {
			limits[i] = limit
		}
		scan, err := idx.ScanManyLimitCtx(ctx, firsts, lens, limits)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range which {
			p := patterns[i]
			want, err := idx.FindAllCtx(ctx, p, limit)
			if err != nil {
				t.Fatal(err)
			}
			got := scan.Ends[k]
			if len(got) != len(want.Positions) {
				t.Fatalf("limit %d pattern %q: %d ends, want %d", limit, p, len(got), len(want.Positions))
			}
			for e, end := range got {
				if pos := int(end) - len(p); pos != want.Positions[e] {
					t.Fatalf("limit %d pattern %q end[%d]: pos %d, want %d", limit, p, e, pos, want.Positions[e])
				}
			}
			if scan.Truncated[k] != want.Truncated {
				t.Fatalf("limit %d pattern %q: Truncated = %v, want %v", limit, p, scan.Truncated[k], want.Truncated)
			}
		}
	}
}

// TestScanManyLimitCtxUnlimitedMatchesScanMany pins the limit-aware scan
// to the original ScanMany when no caps apply.
func TestScanManyLimitCtxUnlimitedMatchesScanMany(t *testing.T) {
	text := []byte("aaccacaacaggtaccaaccacaacaggaaccacaaca")
	idx := Build(text)
	patterns := [][]byte{[]byte("a"), []byte("ac"), []byte("cacaaca"), []byte("gg")}
	firsts, lens, _ := batchInputs(t, idx, patterns)
	want := idx.ScanMany(firsts, lens)
	got, err := idx.ScanManyLimitCtx(context.Background(), firsts, lens, make([]int, len(firsts)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got.Ends[i]) != len(want[i]) {
			t.Fatalf("match %d: %v, want %v", i, got.Ends[i], want[i])
		}
		for j := range want[i] {
			if got.Ends[i][j] != want[i][j] {
				t.Fatalf("match %d: %v, want %v", i, got.Ends[i], want[i])
			}
		}
		if got.Truncated[i] {
			t.Fatalf("match %d truncated without a limit", i)
		}
	}
	if got.Scanned <= 0 {
		t.Fatalf("Scanned = %d, want > 0", got.Scanned)
	}
}

// TestScanManyLimitCtxEarlyExit: when every match is capped, the scan
// stops before the backbone's end and reports the shorter distance.
func TestScanManyLimitCtxEarlyExit(t *testing.T) {
	// Dense hits early, then a long tail without any.
	text := append([]byte("acacacacac"), bytesRepeat('g', 5000)...)
	idx := Build(text)
	patterns := [][]byte{[]byte("ac"), []byte("ca")}
	firsts, lens, _ := batchInputs(t, idx, patterns)
	got, err := idx.ScanManyLimitCtx(context.Background(), firsts, lens, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Scanned >= int64(len(text))/2 {
		t.Fatalf("Scanned = %d, want early exit well before %d", got.Scanned, len(text))
	}
	for i := range patterns {
		if !got.Truncated[i] || len(got.Ends[i]) != 2 {
			t.Fatalf("match %d: ends %v truncated %v, want 2 ends truncated", i, got.Ends[i], got.Truncated[i])
		}
	}
}

// TestScanManyLimitCtxCancellation: a cancelled context aborts the scan
// mid-flight with context.Canceled.
func TestScanManyLimitCtxCancellation(t *testing.T) {
	text := bytesRepeat('a', 3*cancelStride)
	idx := Build(text)
	firsts, lens, _ := batchInputs(t, idx, [][]byte{[]byte("aa")})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Unlimited: without cancellation this would scan the whole backbone.
	if _, err := idx.ScanManyLimitCtx(ctx, firsts, lens, []int{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScanManyLimitCtxTracesOneSpan: one batch pass records exactly one
// batchscan span whose node count equals the scanned distance.
func TestScanManyLimitCtxTracesOneSpan(t *testing.T) {
	text := []byte("aaccacaacaggtaccaaccacaacagg")
	idx := Build(text)
	firsts, lens, _ := batchInputs(t, idx, [][]byte{[]byte("a"), []byte("ac"), []byte("gg")})
	tr := trace.New()
	ctx := trace.NewContext(context.Background(), tr)
	scan, err := idx.ScanManyLimitCtx(ctx, firsts, lens, make([]int, len(firsts)))
	if err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, rec := range tr.Records() {
		if rec.Stage != trace.StageBatchScan {
			t.Fatalf("unexpected stage %q", rec.Stage)
		}
		spans++
		if rec.Nodes != scan.Scanned {
			t.Fatalf("span nodes = %d, want %d", rec.Nodes, scan.Scanned)
		}
	}
	if spans != 1 {
		t.Fatalf("batchscan spans = %d, want exactly 1", spans)
	}
}

// TestScanManyLimitCtxCompactParity: the compact layout's batch scan
// matches the reference layout's.
func TestScanManyLimitCtxCompactParity(t *testing.T) {
	text := []byte("aaccacaacaggtaccaaccacaacaggaaccacaaca")
	idx := Build(text)
	comp, err := Freeze(idx, seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][]byte{[]byte("a"), []byte("ac"), []byte("cacaaca")}
	firsts, lens, _ := batchInputs(t, idx, patterns)
	ctx := context.Background()
	for _, limit := range []int{0, 1, 3} {
		limits := make([]int, len(firsts))
		for i := range limits {
			limits[i] = limit
		}
		ref, err := idx.ScanManyLimitCtx(ctx, firsts, lens, limits)
		if err != nil {
			t.Fatal(err)
		}
		// The compact layout shares node numbering with the reference
		// layout, so the same firsts/lens drive both scans.
		got, err := comp.ScanManyLimitCtx(ctx, firsts, lens, limits)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Ends {
			if len(got.Ends[i]) != len(ref.Ends[i]) || got.Truncated[i] != ref.Truncated[i] {
				t.Fatalf("limit %d match %d: compact %v/%v, reference %v/%v",
					limit, i, got.Ends[i], got.Truncated[i], ref.Ends[i], ref.Truncated[i])
			}
			for j := range ref.Ends[i] {
				if got.Ends[i][j] != ref.Ends[i][j] {
					t.Fatalf("limit %d match %d: compact %v, reference %v", limit, i, got.Ends[i], ref.Ends[i])
				}
			}
		}
	}
}

func bytesRepeat(c byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// TestBatchThresholdRaisedMidBlock covers a capped match finishing
// inside a block: the shared iterator's candidate mask for that block
// was computed for the shorter length, so it is only a superset once
// the threshold rises, and the exact lel tests must still decide. Node
// 19 is the trap: its longest repeated suffix "cgt" (lel 3) first
// occurs at node 15, the long match's first occurrence, so it passes
// the stale mask and its link is a member — but it is no occurrence.
// Both kernels, both layouts, against the scalar oracle.
func TestBatchThresholdRaisedMidBlock(t *testing.T) {
	long := []byte("aaaaaaaaacgt")
	text := []byte("aaaaaaaaaaaacgt" + "tcgt" + "g" + string(long))
	idx := Build(text)
	comp := mustFreeze(t, text, seq.DNA)
	firsts, lens, _ := batchInputs(t, idx, [][]byte{[]byte("aa"), long})
	limits := []int{5, 0}
	ctx := context.Background()
	if link, lel := idx.linkOf(19); link != firsts[1] || lel != 3 {
		t.Fatalf("scenario lost: linkOf(19) = (%d, %d), want (%d, 3)", link, lel, firsts[1])
	}

	prev := SetBlockSkip(false)
	want, err := idx.ScanManyLimitCtx(ctx, firsts, lens, limits)
	SetBlockSkip(prev)
	if err != nil {
		t.Fatal(err)
	}
	// The short match hits its limit inside block 0, before the trap.
	if capped := want.Ends[0][len(want.Ends[0])-1]; !want.Truncated[0] || capped >= 19 || len(want.Ends[1]) != 2 {
		t.Fatalf("scenario lost: short ends %v, long ends %v", want.Ends[0], want.Ends[1])
	}
	runBothKernels(t, func(t *testing.T, k ScanKernel) {
		var scanned int64
		for _, lay := range []interface {
			ScanManyLimitCtx(context.Context, []int32, []int32, []int) (BatchScan, error)
		}{idx, comp} {
			got, err := lay.ScanManyLimitCtx(ctx, firsts, lens, limits)
			if err != nil {
				t.Fatal(err)
			}
			for m := range want.Ends {
				if !slices.Equal(got.Ends[m], want.Ends[m]) || got.Truncated[m] != want.Truncated[m] {
					t.Fatalf("%T match %d: (%v, %v), oracle (%v, %v)", lay, m,
						got.Ends[m], got.Truncated[m], want.Ends[m], want.Truncated[m])
				}
			}
			if scanned != 0 && got.Scanned != scanned {
				t.Fatalf("%T: Scanned = %d, other layout %d", lay, got.Scanned, scanned)
			}
			scanned = got.Scanned
		}
	})
}
