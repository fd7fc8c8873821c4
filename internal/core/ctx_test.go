package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/spine-index/spine/internal/seq"
)

func TestFindAllCtxMatchesFindAll(t *testing.T) {
	text := []byte("aaccacaacaggtaccaaccacaacagg")
	idx := Build(text)
	ctx := context.Background()
	for _, p := range []string{"", "a", "cc", "acaa", "zz", "aaccacaacaggtaccaaccacaacagg"} {
		want := idx.FindAll([]byte(p))
		res, err := idx.FindAllCtx(ctx, []byte(p), 0)
		if err != nil {
			t.Fatalf("FindAllCtx(%q): %v", p, err)
		}
		if len(res.Positions) != len(want) {
			t.Fatalf("FindAllCtx(%q) = %v, want %v", p, res.Positions, want)
		}
		for i := range want {
			if res.Positions[i] != want[i] {
				t.Fatalf("FindAllCtx(%q) = %v, want %v", p, res.Positions, want)
			}
		}
		if res.Truncated {
			t.Fatalf("unlimited FindAllCtx(%q) marked truncated", p)
		}
	}
}

func TestFindAllCtxLimit(t *testing.T) {
	text := []byte(strings.Repeat("ac", 1000))
	idx := Build(text)
	full := idx.FindAll([]byte("ac"))
	res, err := idx.FindAllCtx(context.Background(), []byte("ac"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 5 || !res.Truncated {
		t.Fatalf("limit 5: got %d positions, truncated=%v", len(res.Positions), res.Truncated)
	}
	for i := 0; i < 5; i++ {
		if res.Positions[i] != full[i] {
			t.Fatalf("limited prefix diverges at %d: %d vs %d", i, res.Positions[i], full[i])
		}
	}
	// A limit at least as large as the occurrence count is not truncated.
	res, err = idx.FindAllCtx(context.Background(), []byte("ac"), len(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != len(full) || res.Truncated {
		t.Fatalf("exact limit: got %d/%d, truncated=%v", len(res.Positions), len(full), res.Truncated)
	}
	// Empty pattern respects the limit too.
	res, err = idx.FindAllCtx(context.Background(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 3 || !res.Truncated {
		t.Fatalf("empty pattern limit: %+v", res)
	}
}

func TestFindAllCtxNodesChecked(t *testing.T) {
	idx := Build([]byte(strings.Repeat("ac", 1000)))
	res, err := idx.FindAllCtx(context.Background(), []byte("ac"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesChecked <= 0 {
		t.Fatalf("NodesChecked = %d, want > 0", res.NodesChecked)
	}
}

func TestFindAllCtxCancelled(t *testing.T) {
	idx := Build([]byte(strings.Repeat("a", 200000)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.FindAllCtx(ctx, []byte("aa"), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFindAllCtxAbortsMidScan verifies that a deadline expiring during
// the backbone scan aborts it promptly instead of completing the O(n)
// pass and materializing every occurrence.
func TestFindAllCtxAbortsMidScan(t *testing.T) {
	idx := Build([]byte(strings.Repeat("a", 4_000_000)))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := idx.FindAllCtx(ctx, []byte("aaaa"), 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v — checkpoint not reached", elapsed)
	}
}

func TestCompactFindAllCtx(t *testing.T) {
	text := []byte("aaccacaacaggtaccaaccacaacagg")
	idx := Build(text)
	ci, err := Freeze(idx, seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"acaa", "zz", "a"} {
		want := ci.FindAll([]byte(p))
		res, err := ci.FindAllCtx(context.Background(), []byte(p), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Positions) != len(want) {
			t.Fatalf("compact FindAllCtx(%q) = %v, want %v", p, res.Positions, want)
		}
	}
	res, err := ci.FindAllCtx(context.Background(), []byte("ac"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 2 || !res.Truncated {
		t.Fatalf("compact limit: %+v", res)
	}
}

func TestScanManyCtxParity(t *testing.T) {
	text := []byte("aaccacaacaggtaccaaccacaacagg")
	idx := Build(text)
	end1, _ := idx.EndNode([]byte("ac"))
	end2, _ := idx.EndNode([]byte("ca"))
	firsts := []int32{end1, end2}
	lens := []int32{2, 2}
	want := idx.ScanMany(firsts, lens)
	got, err := idx.ScanManyCtx(context.Background(), firsts, lens)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("ScanManyCtx[%d] = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("ScanManyCtx[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.ScanManyCtx(ctx, firsts, lens); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ScanManyCtx err = %v", err)
	}
}

func TestCountCtx(t *testing.T) {
	idx := Build([]byte("abracadabra"))
	n, nodes, err := idx.CountCtx(context.Background(), []byte("a"))
	if err != nil || n != idx.Count([]byte("a")) {
		t.Fatalf("CountCtx = %d, %v; want %d", n, err, idx.Count([]byte("a")))
	}
	// A count visits what an unlimited findall visits.
	if all, _ := idx.FindAllCtx(context.Background(), []byte("a"), 0); nodes != all.NodesChecked || nodes == 0 {
		t.Fatalf("CountCtx nodes = %d, FindAllCtx NodesChecked = %d", nodes, all.NodesChecked)
	}
}
