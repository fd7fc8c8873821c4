package core

import (
	"context"
	"strings"
	"testing"

	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/trace"
)

// tracedStores builds both layouts over the same text for trace tests.
func tracedStores(t *testing.T, text []byte) (*Index, *CompactIndex) {
	t.Helper()
	idx := Build(text)
	ci, err := Freeze(idx, seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	return idx, ci
}

// TestDescendTracedMatchesPlain verifies the accounting sink does not
// change where a descent ends, on both layouts and kernels, across
// found, absent, and out-of-alphabet patterns.
func TestDescendTracedMatchesPlain(t *testing.T) {
	text := []byte("aaccacaacaggtaccaaccacaacagg")
	idx, ci := tracedStores(t, text)
	patterns := []string{"", "a", "cc", "acaa", "gg", "ggt", "zz", "accg",
		"aaccacaacaggtaccaaccacaacagg", "caacagg"}
	runBothKernels(t, func(t *testing.T, _ ScanKernel) {
		for _, p := range patterns {
			wantEnd, wantOK := endNodeOn(idx, []byte(p), nil)
			ctx := trace.NewContext(context.Background(), trace.New())
			pEnd, pOK := idx.EndNodeCtx(ctx, []byte(p))
			if pEnd != wantEnd || pOK != wantOK {
				t.Fatalf("traced descent of %q = (%d,%v), want (%d,%v)", p, pEnd, pOK, wantEnd, wantOK)
			}
			cEnd, cOK := ci.EndNodeCtx(ctx, []byte(p))
			if cEnd != pEnd || cOK != pOK {
				t.Fatalf("layouts disagree on %q: compact (%d,%v) vs reference (%d,%v)", p, cEnd, cOK, pEnd, pOK)
			}
		}
	})
}

// TestTracedFindAllStageSums checks the acceptance property: the Nodes
// counters of a traced query's spans sum to its reported NodesChecked,
// on both layouts, with and without limits.
func TestTracedFindAllStageSums(t *testing.T) {
	text := []byte(strings.Repeat("acgtacca", 200))
	idx, ci := tracedStores(t, text)
	type q struct {
		p     string
		limit int
	}
	cases := []q{{"ac", 0}, {"ac", 5}, {"acgt", 0}, {"zz", 0}, {"acca", 1}, {"tacgta", 0}}
	run := func(name string, findAll func(ctx context.Context, p []byte, limit int) (ScanResult, error)) {
		for _, c := range cases {
			tr := trace.New()
			ctx := trace.NewContext(context.Background(), tr)
			res, err := findAll(ctx, []byte(c.p), c.limit)
			if err != nil {
				t.Fatalf("%s FindAllCtx(%q): %v", name, c.p, err)
			}
			plain, err := findAll(context.Background(), []byte(c.p), c.limit)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Positions) != len(plain.Positions) || res.NodesChecked != plain.NodesChecked {
				t.Fatalf("%s traced result differs for %q: %d pos/%d nodes vs %d/%d",
					name, c.p, len(res.Positions), res.NodesChecked, len(plain.Positions), plain.NodesChecked)
			}
			if got := tr.TotalNodes(); got != res.NodesChecked {
				t.Fatalf("%s span sum for %q limit %d = %d, want NodesChecked %d",
					name, c.p, c.limit, got, res.NodesChecked)
			}
			var haveDescend bool
			for _, r := range tr.Records() {
				if r.Stage == trace.StageDescend {
					haveDescend = true
				}
			}
			if !haveDescend {
				t.Fatalf("%s trace for %q has no descend span: %+v", name, c.p, tr.Records())
			}
		}
	}
	run("reference", idx.FindAllCtx)
	run("compact", ci.FindAllCtx)
}

// TestTracedCancelRecordsPartialScan checks that an aborted scan still
// attributes the nodes it examined before cancellation.
func TestTracedCancelRecordsPartialScan(t *testing.T) {
	text := []byte(strings.Repeat("ac", 1<<15))
	idx := Build(text)
	tr := trace.New()
	ctx, cancel := context.WithCancel(trace.NewContext(context.Background(), tr))
	cancel()
	// Pre-cancelled context: the entry check fires before any span.
	if _, err := idx.FindAllCtx(ctx, []byte("ac"), 0); err == nil {
		t.Fatal("want error from cancelled context")
	}
	if len(tr.Records()) != 0 {
		t.Fatalf("pre-cancelled query recorded spans: %+v", tr.Records())
	}
}

// TestTracedRibExtribCounters verifies descents that leave the backbone
// record rib (and, when applicable, extrib) hop counts.
func TestTracedRibExtribCounters(t *testing.T) {
	// A pattern whose first occurrence is not a prefix forces rib hops.
	text := []byte("aaccacaacaggtaccaaccacaacagg")
	idx := Build(text)
	tr := trace.New()
	if _, ok := descendOnCtx(trace.NewContext(context.Background(), tr), idx, []byte("gg")); !ok {
		t.Fatal("gg should be found")
	}
	var ribHops int64
	for _, r := range tr.Records() {
		if r.Stage == trace.StageRibs {
			ribHops += r.RibHops
			if r.Nodes != 0 {
				t.Fatalf("ribs span must not carry Nodes: %+v", r)
			}
		}
		if r.Stage == trace.StageDescend && r.RibHops == 0 {
			t.Fatalf("descend span should count rib hops: %+v", r)
		}
	}
	if ribHops == 0 {
		t.Fatal("no rib hops recorded for an off-backbone descent")
	}
}
