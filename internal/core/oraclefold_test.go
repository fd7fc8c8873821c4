package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/trace"
)

// stepCtx lets its first `left` Err calls pass and reports cancellation
// from then on: a scan handed one is cancelled at an exact checkpoint,
// whatever the host's speed.
type stepCtx struct {
	context.Context
	left int
}

func (c *stepCtx) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.Canceled
}

// oracleCorpus is a fixed 50 000-character DNA text (an LCG, so the
// pinned values below do not depend on math/rand's generator).
func oracleCorpus() []byte {
	text := make([]byte, 50_000)
	x := uint32(12345)
	for i := range text {
		x = x*1664525 + 1013904223
		text[i] = "acgt"[x>>30]
	}
	return text
}

// digest folds a position list into "count/sum/last".
func digest(pos []int) string {
	sum, last := 0, -1
	for _, p := range pos {
		sum += p
		last = p
	}
	return fmt.Sprintf("%d/%d/%d", len(pos), sum, last)
}

// scanNodes is the Nodes total of a trace's occurrences spans.
func scanNodes(tr *trace.Trace) (nodes int64) {
	for _, r := range tr.Records() {
		if r.Stage == trace.StageOccurrences {
			nodes += r.Nodes
		}
	}
	return nodes
}

// oracleVerbs is one layout's six occurrence verbs (ctx and plain
// forms) plus the raw end-node scan.
type oracleVerbs struct {
	findAllCtx      func(ctx context.Context, p []byte, limit int) (ScanResult, error)
	countPrefixCtx  func(ctx context.Context, p []byte, maxStart int) (int, int64, error)
	findAll         func(p []byte) []int
	findAllAppend   func(p []byte, dst []int) []int
	count           func(p []byte) int
	forEach         func(p []byte, fn func(int) bool)
	scanOccurrences func(p []byte) []int32
}

// TestScalarOracleVerbsPinned checks the fold of the per-verb scalar
// oracle loops into scalarEachOn: under SetBlockSkip(false) every verb,
// on both layouts, must report what its own oracle arm reported before
// the fold — positions, Truncated and NodesChecked at a limit stop, and
// the examined-node count at a mid-scan cancellation. The golden lines
// were produced by this same test body at the commit before the fold
// (where countOn was countOnCtx).
func TestScalarOracleVerbsPinned(t *testing.T) {
	text := oracleCorpus()
	idx := Build(text)
	comp := mustFreeze(t, text, seq.DNA)
	defer SetBlockSkip(SetBlockSkip(false))

	layouts := []struct {
		name string
		v    oracleVerbs
	}{
		{"reference", oracleVerbs{
			idx.FindAllCtx, idx.CountPrefixCtx, idx.FindAll, idx.FindAllAppend, idx.Count, idx.ForEachOccurrence,
			func(p []byte) []int32 {
				first, _ := idx.EndNode(p)
				return idx.scanOccurrences(first, int32(len(p)))
			},
		}},
		{"compact", oracleVerbs{
			comp.FindAllCtx,
			func(ctx context.Context, p []byte, maxStart int) (int, int64, error) {
				codes, _ := comp.encodePattern(p)
				return countOn(ctx, comp, codes, maxStart)
			},
			comp.FindAll, comp.FindAllAppend, comp.Count, comp.ForEachOccurrence,
			func(p []byte) []int32 {
				cur := NewCompactCursor(comp)
				for _, c := range p {
					cur.Advance(c)
				}
				return cur.MatchEnds()
			},
		}},
	}
	golden := map[string]string{
		"ac": `FindAllCtx limit=0: 3125/77747924/49996 truncated=false nodes=49995 err=<nil>
FindAllCtx limit=1: 1/5/5 truncated=true nodes=2 err=<nil>
FindAllCtx limit=7: 7/431/100 truncated=true nodes=97 err=<nil>
FindAllCtx cancelled: positions=0 nodes=32769 scanNodes=32767 canceled=true
CountPrefixCtx maxStart=-1: 3125 scanNodes=49993 err=<nil>
CountPrefixCtx maxStart=20000: 1254 scanNodes=49993 err=<nil>
CountPrefixCtx cancelled: 0 scanNodes=32767 canceled=true
FindAll: 3125/77747924/49996
FindAllAppend: 3126/77747919/49996
Count: 3125
ForEachOccurrence stop@5: [5 31 55 70 75]
scanOccurrences: 3125/77747924/49996
`,
		"gattac": `FindAllCtx limit=0: 12/316298/46706 truncated=false nodes=46539 err=<nil>
FindAllCtx limit=1: 1/3461/3461 truncated=true nodes=6 err=<nil>
FindAllCtx limit=7: 7/89116/26937 truncated=true nodes=23482 err=<nil>
FindAllCtx cancelled: positions=0 nodes=32773 scanNodes=32767 canceled=true
CountPrefixCtx maxStart=-1: 12 scanNodes=46533 err=<nil>
CountPrefixCtx maxStart=20000: 6 scanNodes=46533 err=<nil>
CountPrefixCtx cancelled: 0 scanNodes=32767 canceled=true
FindAll: 12/316298/46706
FindAllAppend: 13/316293/46706
Count: 12
ForEachOccurrence stop@5: [3461 8669 9387 9864 11066]
scanOccurrences: 12/316298/46706
`,
	}
	for _, lay := range layouts {
		for _, pat := range []string{"ac", "gattac"} {
			got := oracleReport(t, lay.v, []byte(pat))
			if got != golden[pat] {
				t.Errorf("%s %q: oracle verbs report\n%s\nwant\n%s", lay.name, pat, got, golden[pat])
			}
		}
	}
}

func oracleReport(t *testing.T, v oracleVerbs, p []byte) string {
	t.Helper()
	var b strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	bg := context.Background()

	for _, limit := range []int{0, 1, 7} {
		res, err := v.findAllCtx(bg, p, limit)
		line("FindAllCtx limit=%d: %s truncated=%v nodes=%d err=%v", limit, digest(res.Positions), res.Truncated, res.NodesChecked, err)
	}
	// left=2: the entry check and the first checkpoint pass, the second
	// checkpoint (2*cancelStride nodes past the first occurrence) cancels.
	tr := trace.New()
	res, err := v.findAllCtx(trace.NewContext(&stepCtx{bg, 2}, tr), p, 0)
	line("FindAllCtx cancelled: positions=%d nodes=%d scanNodes=%d canceled=%v", len(res.Positions), res.NodesChecked, scanNodes(tr), errors.Is(err, context.Canceled))

	for _, maxStart := range []int{-1, 20_000} {
		tr = trace.New()
		n, nodes, err := v.countPrefixCtx(trace.NewContext(bg, tr), p, maxStart)
		line("CountPrefixCtx maxStart=%d: %d scanNodes=%d err=%v", maxStart, n, scanNodes(tr), err)
		if want := int64(len(p)) + scanNodes(tr); nodes != want {
			t.Errorf("CountPrefixCtx maxStart=%d: nodes = %d, want descent + scan = %d", maxStart, nodes, want)
		}
	}
	tr = trace.New()
	n, _, err := v.countPrefixCtx(trace.NewContext(&stepCtx{bg, 2}, tr), p, -1)
	line("CountPrefixCtx cancelled: %d scanNodes=%d canceled=%v", n, scanNodes(tr), errors.Is(err, context.Canceled))

	line("FindAll: %s", digest(v.findAll(p)))
	line("FindAllAppend: %s", digest(v.findAllAppend(p, []int{-5})))
	line("Count: %d", v.count(p))
	var seen []int
	v.forEach(p, func(start int) bool {
		seen = append(seen, start)
		return len(seen) < 5
	})
	line("ForEachOccurrence stop@5: %v", seen)
	ends := v.scanOccurrences(p)
	starts := make([]int, len(ends))
	for i, e := range ends {
		starts[i] = int(e) - len(p)
	}
	line("scanOccurrences: %s", digest(starts))
	return b.String()
}
