package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/spine-index/spine/internal/core"
	"github.com/spine-index/spine/internal/telemetry"
	"github.com/spine-index/spine/internal/trace"
)

// Occurrence-scan kernel comparison: the same FindAll queries answered
// three ways — the plain node-by-node §4 scan (the oracle: block-skip
// off, scalar kernel), the block-max accelerated scan under the scalar
// kernel, and the block-max scan under the word-parallel SWAR kernel.
// All modes see identical patterns on both index layouts, the returned
// positions are cross-checked element-wise against the oracle every
// round, and a traced pass verifies the work accounting: the
// accelerated modes must visit identical node/block counts under either
// kernel (the SWAR prefilter is exact with respect to admission), word
// compares must appear only under SWAR, and visited nodes plus skipped
// blocks must cover at least the oracle's node count. The timing
// difference therefore isolates first the skip index, then the kernel.

// ScanBenchConfig drives RunScanBench over an in-process corpus build.
type ScanBenchConfig struct {
	Sequence    string // corpus sequence name, e.g. "eco"
	PatternLens []int  // pattern-length ladder; nil = {4, 8, 16, 32, 64}
	Patterns    int    // patterns per length; <= 0 = 64
	Rounds      int    // measured rounds per mode; <= 0 = 5
	// Kernel selects the accelerated modes measured against the scalar
	// oracle: "all" (default) runs block-skip+scalar and block-skip+SWAR,
	// "scalar" only the former, "swar" only the latter.
	Kernel string
}

// ScanModeStats aggregates one mode's round durations plus its traced
// work counters over one full pattern set.
type ScanModeStats struct {
	Rounds        int   `json:"rounds"`
	TotalUs       int64 `json:"totalUs"`
	MeanUs        int64 `json:"meanUs"`
	P50Us         int64 `json:"p50Us"`
	MaxUs         int64 `json:"maxUs"`
	NodesVisited  int64 `json:"nodesVisited"`
	BlocksSkipped int64 `json:"blocksSkipped"`
	BlocksScanned int64 `json:"blocksScanned"`
	WordsCompared int64 `json:"wordsCompared,omitempty"`
}

// ScanRow is one layout x pattern-length comparison.
type ScanRow struct {
	Layout     string `json:"layout"` // "reference" or "compact"
	PatternLen int    `json:"patternLen"`
	Patterns   int    `json:"patterns"`
	// Occurrences is the total hits across the pattern set (identical in
	// all modes by construction; cross-checked every round).
	Occurrences int64 `json:"occurrences"`
	// Selective marks lengths above the text's median LEL — the regime
	// where most backbone nodes fail the lel >= |p| test and whole
	// blocks become skippable.
	Selective bool          `json:"selective"`
	Scalar    ScanModeStats `json:"scalar"`
	BlockSkip ScanModeStats `json:"blockSkip"`
	SWAR      ScanModeStats `json:"swar"`
	// Speedup is oracle mean round time over block-skip (scalar kernel)
	// mean round time; SpeedupSWAR the same against the SWAR kernel.
	Speedup     float64 `json:"speedup,omitempty"`
	SpeedupSWAR float64 `json:"speedupSWAR,omitempty"`
}

// ScanReport is the machine-readable comparison (committed as
// BENCH_scan.json).
type ScanReport struct {
	Sequence  string    `json:"sequence"`
	Chars     int       `json:"chars"`
	MedianLEL int       `json:"medianLEL"`
	BlockSize int       `json:"blockSize"`
	Rounds    int       `json:"rounds"`
	Kernel    string    `json:"kernel"` // mode selection: all|swar|scalar
	ISA       string    `json:"isa"`    // compiled word-load path: amd64|generic
	MaxProcs  int       `json:"maxProcs"`
	Rows      []ScanRow `json:"rows"`
}

// scanArm is one measured configuration of the two scan knobs.
type scanArm struct {
	name      string
	blockSkip bool
	kernel    core.ScanKernel
	st        *ScanModeStats
}

// RunScanBench builds the sequence on both layouts and measures FindAll
// rounds in each selected mode, returning the human table plus the JSON
// report. Modes alternate within each round so cache warm-up and
// background noise spread evenly.
func RunScanBench(c *Corpus, cfg ScanBenchConfig) (Table, ScanReport, error) {
	text, err := c.Get(cfg.Sequence)
	if err != nil {
		return Table{}, ScanReport{}, err
	}
	plens := cfg.PatternLens
	if len(plens) == 0 {
		plens = []int{4, 8, 16, 32, 64}
	}
	nPats := cfg.Patterns
	if nPats <= 0 {
		nPats = 64
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 5
	}
	sel := cfg.Kernel
	if sel == "" {
		sel = "all"
	}
	wantSkip := sel == "all" || sel == "scalar"
	wantSWAR := sel == "all" || sel == "swar"
	if !wantSkip && !wantSWAR {
		return Table{}, ScanReport{}, fmt.Errorf("scan: unknown kernel selection %q (want all, swar or scalar)", sel)
	}

	idx := core.Build(text)
	comp, err := core.Freeze(idx, alphabetFor(cfg.Sequence))
	if err != nil {
		return Table{}, ScanReport{}, err
	}
	report := ScanReport{
		Sequence:  cfg.Sequence,
		Chars:     len(text),
		MedianLEL: medianLEL(idx),
		BlockSize: core.BlockSize,
		Rounds:    rounds,
		Kernel:    sel,
		ISA:       core.ScanKernelISA(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}

	prevSkip := core.SetBlockSkip(true)
	prevKernel := core.ActiveScanKernel()
	defer func() {
		core.SetBlockSkip(prevSkip)
		core.SetScanKernel(prevKernel)
	}()

	type layout struct {
		name    string
		findAll func(ctx context.Context, p []byte, limit int) (core.ScanResult, error)
	}
	for _, lay := range []layout{
		{"reference", idx.FindAllCtx},
		{"compact", comp.FindAllCtx},
	} {
		for _, plen := range plens {
			patterns := SamplePatterns(text, nPats, plen)
			if len(patterns) == 0 {
				continue
			}
			row := ScanRow{
				Layout:     lay.name,
				PatternLen: plen,
				Patterns:   len(patterns),
				Selective:  plen > report.MedianLEL,
			}
			arms := []scanArm{{"scalar", false, core.KernelScalar, &row.Scalar}}
			if wantSkip {
				arms = append(arms, scanArm{"blockSkip", true, core.KernelScalar, &row.BlockSkip})
			}
			if wantSWAR {
				arms = append(arms, scanArm{"swar", true, core.KernelSWAR, &row.SWAR})
			}

			lats := make([]telemetry.Histogram, len(arms))
			totals := make([]time.Duration, len(arms))
			oraclePos := make([][]int, len(patterns))
			for r := 0; r < rounds; r++ {
				for a, arm := range arms {
					core.SetBlockSkip(arm.blockSkip)
					core.SetScanKernel(arm.kernel)
					var occs int64
					t0 := time.Now()
					for i, p := range patterns {
						res, err := lay.findAll(context.Background(), p, 0)
						if err != nil {
							return Table{}, ScanReport{}, err
						}
						occs += int64(len(res.Positions))
						if a == 0 {
							oraclePos[i] = res.Positions
						} else if !equalPositions(res.Positions, oraclePos[i]) {
							return Table{}, ScanReport{}, fmt.Errorf(
								"scan: %s |P|=%d round %d pattern %d: %s positions differ from the scalar oracle",
								lay.name, plen, r, i, arm.name)
						}
					}
					d := time.Since(t0)
					lats[a].ObserveDuration(d)
					totals[a] += d
					row.Occurrences = occs
				}
			}
			for a, arm := range arms {
				*arm.st = scanModeStats(rounds, totals[a], lats[a].Snapshot())
			}
			if err := traceScanWork(lay.findAll, patterns, arms, &row); err != nil {
				return Table{}, ScanReport{}, err
			}
			if wantSkip && row.BlockSkip.MeanUs > 0 {
				row.Speedup = float64(row.Scalar.MeanUs) / float64(row.BlockSkip.MeanUs)
			}
			if wantSWAR && row.SWAR.MeanUs > 0 {
				row.SpeedupSWAR = float64(row.Scalar.MeanUs) / float64(row.SWAR.MeanUs)
			}
			report.Rows = append(report.Rows, row)
		}
	}

	t := Table{
		ID: "scan",
		Title: fmt.Sprintf("scalar vs block-skip vs SWAR FindAll on %s (%s chars, median LEL %d, %d patterns/row, %d rounds, isa %s)",
			cfg.Sequence, fmtCount(int64(len(text))), report.MedianLEL, nPats, rounds, report.ISA),
		Header: []string{"layout", "|P|", "scalar(µs)", "skip(µs)", "swar(µs)", "spd skip", "spd swar",
			"nodes skip", "blk skipped", "words"},
	}
	dash := func(on bool, s string) string {
		if !on {
			return "-"
		}
		return s
	}
	for _, row := range report.Rows {
		mark := ""
		if row.Selective {
			mark = "*"
		}
		t.Rows = append(t.Rows, []string{
			row.Layout,
			fmt.Sprintf("%d%s", row.PatternLen, mark),
			fmt.Sprintf("%d", row.Scalar.MeanUs),
			dash(wantSkip, fmt.Sprintf("%d", row.BlockSkip.MeanUs)),
			dash(wantSWAR, fmt.Sprintf("%d", row.SWAR.MeanUs)),
			dash(wantSkip, fmt.Sprintf("%.2fx", row.Speedup)),
			dash(wantSWAR, fmt.Sprintf("%.2fx", row.SpeedupSWAR)),
			dash(wantSkip || wantSWAR, fmt.Sprintf("%d", maxInt64(row.BlockSkip.NodesVisited, row.SWAR.NodesVisited))),
			dash(wantSkip || wantSWAR, fmt.Sprintf("%d", maxInt64(row.BlockSkip.BlocksSkipped, row.SWAR.BlocksSkipped))),
			dash(wantSWAR, fmt.Sprintf("%d", row.SWAR.WordsCompared)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("* = |P| above the median LEL (%d): the selective regime the skip index and SWAR prefilter target", report.MedianLEL),
		"positions cross-checked against the scalar oracle every round; node/block/word accounting verified per pattern set")
	return t, report, nil
}

// traceScanWork runs one traced (untimed) pass per arm over the pattern
// set, fills in the work counters, and verifies the accounting: the
// accelerated arms must visit no more occurrence-stage nodes than the
// oracle, their visited nodes plus skipped-block coverage must reach at
// least the oracle count, both accelerated arms must agree exactly on
// nodes/blocks (the kernel-invariance contract), and word compares must
// appear under the SWAR kernel only.
func traceScanWork(findAll func(ctx context.Context, p []byte, limit int) (core.ScanResult, error), patterns [][]byte, arms []scanArm, row *ScanRow) error {
	for _, arm := range arms {
		core.SetBlockSkip(arm.blockSkip)
		core.SetScanKernel(arm.kernel)
		for _, p := range patterns {
			tr := trace.New()
			ctx := trace.NewContext(context.Background(), tr)
			if _, err := findAll(ctx, p, 0); err != nil {
				return err
			}
			for _, rec := range tr.Records() {
				arm.st.WordsCompared += rec.WordsCompared
				if rec.Stage != trace.StageOccurrences {
					continue
				}
				arm.st.NodesVisited += rec.Nodes
				arm.st.BlocksSkipped += rec.BlocksSkipped
				arm.st.BlocksScanned += rec.BlocksScanned
			}
		}
	}
	s := &row.Scalar
	if s.WordsCompared != 0 {
		return fmt.Errorf("scan: %s |P|=%d: scalar oracle recorded %d word compares",
			row.Layout, row.PatternLen, s.WordsCompared)
	}
	for _, arm := range arms[1:] {
		b := arm.st
		if b.NodesVisited > s.NodesVisited {
			return fmt.Errorf("scan: %s |P|=%d: %s visited %d nodes > scalar %d",
				row.Layout, row.PatternLen, arm.name, b.NodesVisited, s.NodesVisited)
		}
		if covered := b.NodesVisited + int64(core.BlockSize)*b.BlocksSkipped; covered < s.NodesVisited {
			return fmt.Errorf("scan: %s |P|=%d: %s covered %d nodes < scalar %d",
				row.Layout, row.PatternLen, arm.name, covered, s.NodesVisited)
		}
		if arm.kernel == core.KernelSWAR && b.WordsCompared == 0 {
			return fmt.Errorf("scan: %s |P|=%d: SWAR arm recorded no word compares",
				row.Layout, row.PatternLen)
		}
		if arm.kernel == core.KernelScalar && b.WordsCompared != 0 {
			return fmt.Errorf("scan: %s |P|=%d: scalar-kernel arm recorded %d word compares",
				row.Layout, row.PatternLen, b.WordsCompared)
		}
	}
	if len(arms) == 3 {
		bs, sw := arms[1].st, arms[2].st
		if bs.NodesVisited != sw.NodesVisited ||
			bs.BlocksSkipped != sw.BlocksSkipped ||
			bs.BlocksScanned != sw.BlocksScanned {
			return fmt.Errorf("scan: %s |P|=%d: kernel invariance broken: blockSkip (%d nodes, %d/%d blocks) vs swar (%d nodes, %d/%d blocks)",
				row.Layout, row.PatternLen,
				bs.NodesVisited, bs.BlocksSkipped, bs.BlocksScanned,
				sw.NodesVisited, sw.BlocksSkipped, sw.BlocksScanned)
		}
	}
	return nil
}

func scanModeStats(rounds int, total time.Duration, h telemetry.HistogramSnapshot) ScanModeStats {
	s := ScanModeStats{
		Rounds:  rounds,
		TotalUs: total.Microseconds(),
		P50Us:   h.P50,
		MaxUs:   h.Max,
	}
	if rounds > 0 {
		s.MeanUs = s.TotalUs / int64(rounds)
	}
	return s
}

// medianLEL is the median longest-early-terminating-suffix length over
// the backbone — the pattern length at which roughly half the nodes
// already fail the lel >= |p| occurrence test.
func medianLEL(idx *core.Index) int {
	n := idx.Len()
	if n == 0 {
		return 0
	}
	lels := make([]int, n)
	for i := 1; i <= n; i++ {
		_, lel := idx.Link(i)
		lels[i-1] = int(lel)
	}
	sort.Ints(lels)
	return lels[n/2]
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func equalPositions(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
