package spine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// legacyQuerier is the pre-Query per-method surface. The Querier
// interface no longer carries it, but every concrete flavor keeps the
// methods as shims over Query; tests pin them through this local
// interface to prove the shims stay equivalent.
type legacyQuerier interface {
	Querier
	ContainsContext(ctx context.Context, p []byte) (bool, error)
	FindContext(ctx context.Context, p []byte) (int, error)
	FindAllContext(ctx context.Context, p []byte) ([]int, error)
	FindAllLimitContext(ctx context.Context, p []byte, limit int) (QueryResult, error)
	CountContext(ctx context.Context, p []byte) (int, error)
}

// queriers builds all three index flavors over the same text.
func queriers(t *testing.T, text []byte) map[string]legacyQuerier {
	t.Helper()
	idx := Build(text)
	c, err := idx.Compact(DNA)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildSharded(text, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]legacyQuerier{"index": idx, "compact": c, "sharded": sh}
}

func TestQuerierParity(t *testing.T) {
	text := []byte("aaccacaacaggtaccaaccacaacagg")
	ref := Build(text)
	ctx := context.Background()
	for name, q := range queriers(t, text) {
		if q.Len() != len(text) {
			t.Fatalf("%s: Len = %d, want %d", name, q.Len(), len(text))
		}
		for _, p := range []string{"a", "cc", "acaa", "gtac"} {
			wantAll := ref.FindAll([]byte(p))
			ok, err := q.ContainsContext(ctx, []byte(p))
			if err != nil || ok != (len(wantAll) > 0) {
				t.Fatalf("%s: Contains(%q) = %v, %v", name, p, ok, err)
			}
			pos, err := q.FindContext(ctx, []byte(p))
			if err != nil {
				t.Fatal(err)
			}
			wantPos := -1
			if len(wantAll) > 0 {
				wantPos = wantAll[0]
			}
			if pos != wantPos {
				t.Fatalf("%s: Find(%q) = %d, want %d", name, p, pos, wantPos)
			}
			all, err := q.FindAllContext(ctx, []byte(p))
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(wantAll) {
				t.Fatalf("%s: FindAll(%q) = %v, want %v", name, p, all, wantAll)
			}
			for i := range wantAll {
				if all[i] != wantAll[i] {
					t.Fatalf("%s: FindAll(%q) = %v, want %v", name, p, all, wantAll)
				}
			}
			n, err := q.CountContext(ctx, []byte(p))
			if err != nil || n != len(wantAll) {
				t.Fatalf("%s: Count(%q) = %d, %v; want %d", name, p, n, err, len(wantAll))
			}
		}
	}
}

func TestQuerierFindAllLimit(t *testing.T) {
	text := []byte(strings.Repeat("ac", 50))
	ref := Build(text)
	full := ref.FindAll([]byte("ac"))
	ctx := context.Background()
	for name, q := range queriers(t, text) {
		res, err := q.FindAllLimitContext(ctx, []byte("ac"), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Positions) != 5 || !res.Truncated {
			t.Fatalf("%s: limit 5 gave %d positions, truncated=%v", name, len(res.Positions), res.Truncated)
		}
		for i := 0; i < 5; i++ {
			if res.Positions[i] != full[i] {
				t.Fatalf("%s: limited prefix %v diverges from %v", name, res.Positions, full[:5])
			}
		}
		if res.NodesChecked <= 0 {
			t.Fatalf("%s: NodesChecked = %d", name, res.NodesChecked)
		}
		// Unlimited agrees with FindAll.
		res, err = q.FindAllLimitContext(ctx, []byte("ac"), 0)
		if err != nil || len(res.Positions) != len(full) || res.Truncated {
			t.Fatalf("%s: unlimited gave %d/%d truncated=%v err=%v",
				name, len(res.Positions), len(full), res.Truncated, err)
		}
	}
}

func TestQuerierCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, q := range queriers(t, []byte("aaccacaacagg")) {
		if _, err := q.FindAllContext(ctx, []byte("a")); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: FindAllContext err = %v, want Canceled", name, err)
		}
		if _, err := q.ContainsContext(ctx, []byte("a")); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: ContainsContext err = %v, want Canceled", name, err)
		}
	}
}

// TestFindAllContextCancelMidScan is the acceptance check: a context
// cancelled while the O(n) occurrence scan is running must abort it
// promptly rather than completing the scan.
func TestFindAllContextCancelMidScan(t *testing.T) {
	idx := Build([]byte(strings.Repeat("a", 4_000_000)))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := idx.FindAllContext(ctx, []byte("aaa"))
		done <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the scan start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) && err != nil {
			t.Fatalf("err = %v, want Canceled or completed-before-cancel nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FindAllContext did not return promptly after cancel")
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := BuildSharded([]byte("acgt"), 2, 0, 0); !errors.Is(err, ErrBadShardConfig) {
		t.Fatalf("maxPattern 0: %v", err)
	}
	if _, err := BuildSharded([]byte("acgt"), 2, 4, 0); !errors.Is(err, ErrBadShardConfig) {
		t.Fatalf("shardSize < maxPattern: %v", err)
	}
	sh, err := BuildSharded([]byte("acgtacgt"), 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Contains([]byte("acgta")); !errors.Is(err, ErrPatternTooLong) {
		t.Fatalf("oversized pattern: %v", err)
	}
	if _, err := sh.FindAllLimitContext(context.Background(), []byte("acgta"), 1); !errors.Is(err, ErrPatternTooLong) {
		t.Fatalf("oversized pattern via limit: %v", err)
	}
	if _, err := Build([]byte("ac")).Compact(nil); !errors.Is(err, ErrEmptyAlphabet) {
		t.Fatalf("nil alphabet: %v", err)
	}
	if _, err := NewCompactBuilder(nil); !errors.Is(err, ErrEmptyAlphabet) {
		t.Fatalf("nil alphabet builder: %v", err)
	}
	if _, err := BuildGeneralized([][]byte{[]byte("a#b")}, '#'); !errors.Is(err, ErrSeparatorInText) {
		t.Fatalf("separator in text: %v", err)
	}
}

func TestShardedStatsAggregation(t *testing.T) {
	text := []byte(strings.Repeat("aaccacaacagg", 10))
	sh, err := BuildSharded(text, 32, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Length != len(text) {
		t.Fatalf("Length = %d, want %d", st.Length, len(text))
	}
	if st.RibCount == 0 || st.MemoryBytes == 0 || st.MaxLEL == 0 {
		t.Fatalf("degenerate aggregate stats: %+v", st)
	}
}

func TestCompactMaximalMatchesContext(t *testing.T) {
	data := []byte("acaccgacgatacgagattacgagacgagaatacaacag")
	idx := Build(data)
	c, err := idx.Compact(DNA)
	if err != nil {
		t.Fatal(err)
	}
	query := []byte("catagagagacgattacgagaaaacgggaaagacgatcc")
	want, _, err := idx.MaximalMatches(query, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.MaximalMatchesContext(context.Background(), query, 6)
	if err != nil || len(got) != len(want) {
		t.Fatalf("compact ctx variant: %d matches, err %v; want %d", len(got), err, len(want))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.MaximalMatchesContext(ctx, query, 6); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MaximalMatchesContext err = %v", err)
	}
	if _, _, err := idx.MaximalMatchesContext(ctx, query, 6); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Index.MaximalMatchesContext err = %v", err)
	}
}
