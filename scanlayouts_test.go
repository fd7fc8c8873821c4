package spine

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/spine-index/spine/internal/core"
	"github.com/spine-index/spine/internal/seqgen"
)

// TestQueryScanLayoutsEquivalent: the one occurrence scan must produce
// the identical QueryResult — positions, truncation and count — on the
// reference, compact and mapped layouts under every scan configuration
// ({block-skip, scalar oracle} x {SWAR, scalar kernel}), and the same
// NodesChecked on every layout and kernel of one block-skip setting
// (the oracle visits every node, so it differs from the skip scan's) —
// a count reporting what the unlimited findall of its pattern reports,
// on the sharded layout too.
func TestQueryScanLayoutsEquivalent(t *testing.T) {
	data, err := seqgen.SuiteSequence("eco", 100)
	if err != nil {
		t.Fatal(err)
	}
	idx := Build(data)
	comp, err := idx.Compact(DNA)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scan.spine")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	queriers := map[string]Querier{"index": idx, "compact": comp, "mapped": mapped}
	pats := [][]byte{
		[]byte("a"), []byte("ac"), []byte("acgt"), []byte("gattaca"),
		data[100:108], data[len(data)/2 : len(data)/2+12], []byte("acgtacgtacgtacgt"),
	}
	limits := []int{0, 1, 3, 50}
	kinds := []QueryKind{KindFindAll, KindCount}

	defer core.SetBlockSkip(core.BlockSkipEnabled())
	defer core.SetScanKernel(core.ActiveScanKernel())

	ctx := context.Background()
	type caseKey struct {
		pi   int
		lim  int
		kind QueryKind
	}
	want := map[caseKey]QueryResult{}
	for _, skip := range []bool{true, false} {
		core.SetBlockSkip(skip)
		nodes := map[caseKey]int64{}
		for _, kernel := range []core.ScanKernel{core.KernelSWAR, core.KernelScalar} {
			core.SetScanKernel(kernel)
			for name, q := range queriers {
				for pi, p := range pats {
					for _, lim := range limits {
						for _, kind := range kinds {
							got, err := q.Query(ctx, p, QueryOptions{Kind: kind, Limit: lim})
							if err != nil {
								t.Fatalf("%s skip=%v %v %s(%q): %v", name, skip, kernel, kind, p, err)
							}
							k := caseKey{pi, lim, kind}
							if _, seen := nodes[k]; !seen {
								nodes[k] = got.NodesChecked
							}
							ref, seen := want[k]
							if !seen {
								want[k], ref = got, got
							}
							if got.Found != ref.Found || got.Position != ref.Position ||
								got.Count != ref.Count || got.Truncated != ref.Truncated ||
								got.NodesChecked != nodes[k] || !slices.Equal(got.Positions, ref.Positions) {
								t.Fatalf("%s skip=%v %v %s(%q, limit %d):\n got %+v\nwant %+v (NodesChecked %d)",
									name, skip, kernel, kind, p, lim, got, ref, nodes[k])
							}
						}
					}
				}
			}
		}
		// A count streams the pass an unlimited findall stores: same work.
		for pi, p := range pats {
			c, f := nodes[caseKey{pi, 0, KindCount}], nodes[caseKey{pi, 0, KindFindAll}]
			if c != f || c == 0 {
				t.Fatalf("skip=%v %q: count NodesChecked %d, unlimited findall %d", skip, p, c, f)
			}
		}
	}
	// The sharded layout sums its shards' work, for both kinds alike.
	sh, err := BuildSharded(data, 8192, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pats {
		c, cerr := sh.Query(ctx, p, QueryOptions{Kind: KindCount})
		f, ferr := sh.Query(ctx, p, QueryOptions{Kind: KindFindAll})
		if cerr != nil || ferr != nil || c.NodesChecked != f.NodesChecked || c.NodesChecked == 0 || c.Count != f.Count {
			t.Fatalf("sharded %q: count %+v (%v), findall count %d NodesChecked %d (%v)", p, c, cerr, f.Count, f.NodesChecked, ferr)
		}
	}
}
