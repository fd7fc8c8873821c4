package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/seqgen"
)

// ecoBench is the benchmark suite's corpus regime — seqgen with the eco
// parameters (repeat fraction 0.30, mean repeat 220, mutation 0.02, 3.5 M
// chars) — on both layouts, built once per process.
var ecoBench struct {
	once sync.Once
	text []byte
	ref  *Index
	comp *CompactIndex
}

func ecoBenchIndexes(b *testing.B) (text []byte, ref *Index, comp *CompactIndex) {
	e := &ecoBench
	e.once.Do(func() {
		var err error
		if e.text, err = seqgen.SuiteSequence("eco", 1); err != nil {
			b.Fatal(err)
		}
		e.ref = Build(e.text)
		if e.comp, err = Freeze(e.ref, seq.DNA); err != nil {
			b.Fatal(err)
		}
	})
	return e.text, e.ref, e.comp
}

// BenchmarkOccurrenceScan measures the §4 occurrence scan in two
// regimes. scalar/blockskip: one 32-mer on 1 MB of uniform random DNA,
// where almost no block is admitted (the regime BENCH_scan.json reports
// on; see also spinebench -scan). eco/*: the regimes the BENCHMARK.json
// `scan` workload measures — repeat-rich text, where |P|=8 admits nearly
// every node, |P|=12 about four in ten and |P|=32 only the repeats — as
// CountCtx over 14 patterns cut from evenly spread offsets, one op = all
// 14; occ/op is their occurrence total.
func BenchmarkOccurrenceScan(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	text := randDNA(rng, 1<<20)
	idx := Build(text)
	pat := text[1000:1032]
	for _, mode := range []struct {
		name string
		on   bool
	}{{"scalar", false}, {"blockskip", true}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := SetBlockSkip(mode.on)
			defer SetBlockSkip(prev)
			var dst []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = idx.FindAllAppend(pat, dst[:0])
			}
		})
	}

	const spread = 14
	ctx := context.Background()
	for _, lay := range []string{"reference", "compact"} {
		for _, plen := range []int{8, 12, 32} {
			b.Run(fmt.Sprintf("eco/%s/P%d", lay, plen), func(b *testing.B) {
				text, ref, comp := ecoBenchIndexes(b)
				count := ref.CountCtx
				if lay == "compact" {
					count = comp.CountCtx
				}
				stretch := (len(text) - plen) / spread
				occ := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					occ = 0
					for k := 0; k < spread; k++ {
						off := k*stretch + stretch/2
						n, _, err := count(ctx, text[off:off+plen])
						if err != nil || n == 0 {
							b.Fatalf("CountCtx(text[%d:%d]) = %d, %v", off, off+plen, n, err)
						}
						occ += n
					}
				}
				b.ReportMetric(float64(occ), "occ/op")
			})
		}
	}
}
