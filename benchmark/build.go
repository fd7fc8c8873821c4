package main

import (
	"bufio"
	"os"
	"time"

	"github.com/spine-index/spine"
	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/seqgen"
)

// genCorpus makes the run's text: seqgen with the eco parameters and a
// seed derived from the run seed.
func genCorpus(seed int64, chars int) ([]byte, error) {
	return seqgen.Generate(seqgen.Spec{
		Name: "eco", Alphabet: seq.DNA, Length: chars,
		RepeatFraction: repeatFraction, MeanRepeatLen: meanRepeatLen, MutationRate: mutationRate,
		Seed: seed*7919 + 101,
	})
}

// buildTimings is one index build, step by step.
type buildTimings struct {
	chunks                      samples // one per AppendString of ingestChunk chars
	appendT, freeze, save       time.Duration
	chars                       int
	refBytes, compactBytes, img int64
}

func (b buildTimings) total() time.Duration { return b.appendT + b.freeze + b.save }

// buildImage builds the index the way an ingesting caller does — online
// append in chunks, freeze to the compact layout, save the v3 image —
// timing each step. timed false skips the per-step clocks (an untraced
// ingest round); chunk latencies are always taken, they are the ingest
// workload's operations.
func buildImage(text []byte, path string, timed bool) (buildTimings, error) {
	bt := buildTimings{chars: len(text)}
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	idx := spine.New()
	for off := 0; off < len(text); off += ingestChunk {
		end := off + ingestChunk
		if end > len(text) {
			end = len(text)
		}
		c0 := time.Now()
		idx.AppendString(text[off:end])
		bt.chunks = append(bt.chunks, time.Since(c0))
	}
	if timed {
		bt.appendT = time.Since(t0)
		bt.refBytes = idx.Stats().MemoryBytes
		t0 = time.Now()
	}
	c, err := idx.Compact(spine.DNA)
	if err != nil {
		return bt, err
	}
	if timed {
		bt.freeze = time.Since(t0)
		bt.compactBytes = c.SizeBytes()
		t0 = time.Now()
	}
	f, err := os.Create(path)
	if err != nil {
		return bt, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := c.Save(w); err != nil {
		f.Close()
		return bt, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return bt, err
	}
	if err := f.Close(); err != nil {
		return bt, err
	}
	if timed {
		bt.save = time.Since(t0)
	}
	st, err := os.Stat(path)
	if err != nil {
		return bt, err
	}
	bt.img = st.Size()
	return bt, nil
}
