package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"github.com/spine-index/spine"
)

// The ingest workload runs in a child process — this binary re-executed
// with -ingest-child — that holds only the corpus and the index, so its
// peak RSS and CPU are the library's, not the benchmark's suffix array.
// Parent and child talk through two JSON files in the run directory.

type ingestQuery struct {
	Kind      opKind `json:"kind"`
	Limit     int    `json:"limit"`
	Pattern   string `json:"pattern"`
	Count     int    `json:"count"`
	First     int    `json:"first"`
	Positions []int  `json:"positions"`
}

type ingestIn struct {
	Seed    int64         `json:"seed"`
	Chars   int           `json:"chars"`
	Seconds float64       `json:"seconds"` // stop after the round in which this much has been measured
	Rounds  int           `json:"rounds"`  // or after this many measured rounds, when > 0
	Traced  bool          `json:"traced"`  // time the steps of every other round
	Queries []ingestQuery `json:"queries"` // ingestRoundQueries per round, warm-up round first
}

// ingestRound is one build-save-open-verify cycle. The step times are
// set on traced rounds only; StartNs counts from the child's start.
type ingestRound struct {
	Traced   bool    `json:"traced"`
	StartNs  int64   `json:"start_ns"`
	AppendNs int64   `json:"append_ns"`
	FreezeNs int64   `json:"freeze_ns"`
	SaveNs   int64   `json:"save_ns"`
	OpenNs   int64   `json:"open_ns"`
	VerifyNs int64   `json:"verify_ns"`
	WallNs   int64   `json:"wall_ns"`
	ChunkNs  []int64 `json:"chunk_ns"`
}

type ingestOut struct {
	WarmupNs     int64         `json:"warmup_ns"`
	Rounds       []ingestRound `json:"rounds"`
	Chars        int           `json:"chars"`
	ImageBytes   int64         `json:"image_bytes"`
	RefBytes     int64         `json:"ref_bytes"`
	CompactBytes int64         `json:"compact_bytes"`
	Queries      int           `json:"queries"`
	Wrong        int           `json:"wrong"`
	FirstFailure string        `json:"first_failure"`
	PeakRSSMiB   float64       `json:"peak_rss_mib"`
	CPUNs        int64         `json:"cpu_ns"` // of the measured rounds
}

const (
	ingestInFile  = "ingest-in.json"
	ingestOutFile = "ingest-out.json"
)

// ingestChild is the child's main: warm-up round, then measured rounds.
func ingestChild(dir string) error {
	var in ingestIn
	b, err := os.ReadFile(filepath.Join(dir, ingestInFile))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	text, err := genCorpus(in.Seed, in.Chars)
	if err != nil {
		return err
	}
	out := ingestOut{Chars: len(text)}
	image := filepath.Join(dir, "ingest.img")
	epoch := time.Now()

	round := func(r int, timed bool) (ingestRound, error) {
		ir := ingestRound{Traced: timed}
		// Every round starts from a collected heap, so the collector's
		// cycles fall at the same points of every round.
		runtime.GC()
		t0 := time.Now()
		bt, err := buildImage(text, image, timed)
		if err != nil {
			return ir, err
		}
		t1 := time.Now()
		m, err := spine.OpenMapped(image, spine.MappedOptions{Verify: true})
		if err != nil {
			return ir, err
		}
		t2 := time.Now()
		for _, q := range in.Queries[r*ingestRoundQueries : (r+1)*ingestRoundQueries] {
			o := op{kind: q.Kind, limit: q.Limit, pats: [][]byte{[]byte(q.Pattern)}}
			res, err := m.Query(context.Background(), o.pats[0], queryOptions(o))
			if err == nil {
				err = verifyResult(o, 0, want{count: q.Count, first: q.First, positions: q.Positions}, res)
			}
			out.Queries++
			if err != nil {
				out.Wrong++
				if out.FirstFailure == "" {
					out.FirstFailure = fmt.Sprintf("round %d: %v", r, err)
				}
			}
		}
		t3 := time.Now()
		if err := m.Close(); err != nil {
			return ir, err
		}
		ir.WallNs = time.Since(t0).Nanoseconds()
		for _, c := range bt.chunks {
			ir.ChunkNs = append(ir.ChunkNs, c.Nanoseconds())
		}
		out.ImageBytes = bt.img
		if timed {
			ir.StartNs = t0.Sub(epoch).Nanoseconds()
			ir.AppendNs, ir.FreezeNs, ir.SaveNs = bt.appendT.Nanoseconds(), bt.freeze.Nanoseconds(), bt.save.Nanoseconds()
			ir.OpenNs, ir.VerifyNs = t2.Sub(t1).Nanoseconds(), t3.Sub(t2).Nanoseconds()
			out.RefBytes, out.CompactBytes = bt.refBytes, bt.compactBytes
		}
		return ir, nil
	}

	w0 := time.Now()
	if _, err := round(0, true); err != nil {
		return err
	}
	out.WarmupNs = time.Since(w0).Nanoseconds()

	before, err := readProcUsage(os.Getpid())
	if err != nil {
		return err
	}
	limit := time.Duration(in.Seconds * float64(time.Second))
	start := time.Now()
	for r := 1; r < ingestMaxRounds; r++ {
		// Traced runs time the steps of odd rounds only, so the even ones
		// give the untraced rate the overhead is measured against.
		ir, err := round(r, in.Traced && r%2 == 1)
		if err != nil {
			return err
		}
		out.Rounds = append(out.Rounds, ir)
		if (in.Rounds > 0 && r >= in.Rounds) || (in.Rounds == 0 && time.Since(start) >= limit) {
			break
		}
	}
	after, err := readProcUsage(os.Getpid())
	if err != nil {
		return err
	}
	out.PeakRSSMiB = after.peakRSSMiB
	out.CPUNs = (after.cpu - before.cpu).Nanoseconds()
	b, err = json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ingestOutFile), b, 0o644)
}

func queryOptions(o op) spine.QueryOptions {
	kinds := [...]spine.QueryKind{spine.KindContains, spine.KindFind, spine.KindFindAll, spine.KindCount}
	return spine.QueryOptions{Kind: kinds[o.kind], Limit: o.limit}
}

// runIngestChild prepares the child's input — the round queries with
// their oracle answers — runs it to completion and reads its output.
// prep is what the parent spent on corpus and oracle.
func runIngestChild(cfg *config, rounds int, traced bool) (out ingestOut, prep time.Duration, err error) {
	t0 := time.Now()
	text, err := genCorpus(cfg.seed, cfg.chars())
	if err != nil {
		return out, 0, err
	}
	orc := newOracle(text)
	qs := genIngestQueries(newGenerator(cfg.seed, "ingest", text), ingestMaxRounds*ingestRoundQueries)
	in := ingestIn{Seed: cfg.seed, Chars: len(text), Seconds: cfg.seconds, Rounds: rounds, Traced: traced}
	for _, q := range qs {
		w := orc.answer(q.pats[0], q.limit, q.kind == opFindAll)
		in.Queries = append(in.Queries, ingestQuery{
			Kind: q.kind, Limit: q.limit, Pattern: string(q.pats[0]),
			Count: w.count, First: w.first, Positions: w.positions,
		})
	}
	cfg.note("ingest", "schedule_hash", scheduleHash(qs))
	prep = time.Since(t0)
	b, err := json.Marshal(in)
	if err != nil {
		return out, prep, err
	}
	if err := os.WriteFile(filepath.Join(cfg.runDir, ingestInFile), b, 0o644); err != nil {
		return out, prep, err
	}
	self, err := os.Executable()
	if err != nil {
		return out, prep, err
	}
	logf, err := os.Create(filepath.Join(cfg.runDir, "ingest-child.log"))
	if err != nil {
		return out, prep, err
	}
	defer logf.Close()
	cmd := exec.Command(self, "-ingest-child", cfg.runDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Run(); err != nil {
		tail, _ := os.ReadFile(logf.Name()) // best effort: the run error is what matters
		return out, prep, fmt.Errorf("ingest child: %w\n%s", err, tail)
	}
	b, err = os.ReadFile(filepath.Join(cfg.runDir, ingestOutFile))
	if err != nil {
		return out, prep, err
	}
	return out, prep, json.Unmarshal(b, &out)
}
