package core

import (
	"math/rand"
	"testing"

	"github.com/spine-index/spine/internal/seq"
)

// The steady-state query hot paths must not allocate: scan scratch and
// pattern-code buffers come from pools, the membership bitset is reset
// by clearing only the words a query dirtied, Count streams, and
// FindAllAppend reuses the caller's slice. Pinned to exactly zero
// allocations per query on both layouts.
func TestQueryPathsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	rng := rand.New(rand.NewSource(29))
	base := randDNA(rng, 4000)
	text := append(append([]byte{}, base...), base...)
	idx := Build(text)
	comp := mustFreeze(t, text, seq.DNA)
	pat := append([]byte(nil), text[100:112]...) // repeated: many occurrences
	miss := []byte("acgtacgtacgtttttttttttttacgt")
	keep := func(int) bool { return true }

	type layout struct {
		name          string
		contains      func(p []byte) bool
		find          func(p []byte) int
		count         func(p []byte) int
		findAllAppend func(p []byte, dst []int) []int
		forEach       func(p []byte, fn func(int) bool)
	}
	// Both kernels must hold the zero-allocation bar: the SWAR paths
	// draw their packed-pattern buffers from the swarPat pool and the
	// packed admission lanes are plain index reads.
	prev := ActiveScanKernel()
	defer SetScanKernel(prev)
	for _, kernel := range []ScanKernel{KernelSWAR, KernelScalar} {
		SetScanKernel(kernel)
		for _, lay := range []layout{
			{"reference", idx.Contains, idx.Find, idx.Count, idx.FindAllAppend, idx.ForEachOccurrence},
			{"compact", comp.Contains, comp.Find, comp.Count, comp.FindAllAppend, comp.ForEachOccurrence},
		} {
			dst := lay.findAllAppend(pat, make([]int, 0, len(text))) // warm pools, size dst
			if len(dst) == 0 {
				t.Fatalf("%s/%v: warm-up found no occurrences", lay.name, kernel)
			}
			lay.contains(pat)
			lay.find(pat)
			lay.count(pat)
			lay.forEach(pat, keep)

			cases := []struct {
				op string
				fn func()
			}{
				{"Contains(hit)", func() { lay.contains(pat) }},
				{"Contains(miss)", func() { lay.contains(miss) }},
				{"Find", func() { lay.find(pat) }},
				{"Count", func() { lay.count(pat) }},
				{"FindAllAppend(steady)", func() { dst = lay.findAllAppend(pat, dst[:0]) }},
				{"ForEachOccurrence", func() { lay.forEach(pat, keep) }},
			}
			for _, tc := range cases {
				if n := testing.AllocsPerRun(50, tc.fn); n != 0 {
					t.Errorf("%s/%v %s: %.1f allocs/op, want 0", lay.name, kernel, tc.op, n)
				}
			}
		}
	}
}
