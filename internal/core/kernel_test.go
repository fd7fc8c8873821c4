package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/spine-index/spine/internal/seq"
)

// runBothKernels runs fn once under each kernel, restoring the previous
// selection afterwards.
func runBothKernels(t *testing.T, fn func(t *testing.T, k ScanKernel)) {
	t.Helper()
	prev := ActiveScanKernel()
	defer SetScanKernel(prev)
	for _, k := range []ScanKernel{KernelScalar, KernelSWAR} {
		SetScanKernel(k)
		t.Run(k.String(), func(t *testing.T) { fn(t, k) })
	}
}

// lane16Cases are the boundary-heavy values the borrow-isolation compare
// must get right: around zero, around the sign bit, around the sentinel.
var lane16Cases = []uint16{0, 1, 2, 0x7FFE, 0x7FFF, 0x8000, 0x8001, 0xFFFE, 0xFFFF}

func TestLaneGE16(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	vals := append([]uint16(nil), lane16Cases...)
	for i := 0; i < 40; i++ {
		vals = append(vals, uint16(rng.Uint32()))
	}
	for _, threshold := range vals {
		// Pack four values per word, covering every lane position.
		for trial := 0; trial < len(vals); trial++ {
			var lanes [4]uint16
			for l := range lanes {
				lanes[l] = vals[(trial+l*7)%len(vals)]
			}
			x := uint64(lanes[0]) | uint64(lanes[1])<<16 | uint64(lanes[2])<<32 | uint64(lanes[3])<<48
			m := laneGE16(x, threshold)
			for l, v := range lanes {
				got := m>>(uint(l)*16+15)&1 == 1
				want := v >= threshold
				if got != want {
					t.Fatalf("laneGE16(lane %d = %#x, t = %#x): got %v, want %v", l, v, threshold, got, want)
				}
			}
		}
	}
}

func TestLaneGE32(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	vals := []uint32{0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFE, 0xFFFF_FFFF, 0xFFFF, 0x10000}
	for i := 0; i < 40; i++ {
		vals = append(vals, rng.Uint32())
	}
	for _, threshold := range vals {
		for trial := 0; trial < len(vals); trial++ {
			lo, hi := vals[trial], vals[(trial+5)%len(vals)]
			x := uint64(lo) | uint64(hi)<<32
			m := laneGE32(x, threshold)
			if got, want := m>>31&1 == 1, lo >= threshold; got != want {
				t.Fatalf("laneGE32(lane 0 = %#x, t = %#x): got %v, want %v", lo, threshold, got, want)
			}
			if got, want := m>>63&1 == 1, hi >= threshold; got != want {
				t.Fatalf("laneGE32(lane 1 = %#x, t = %#x): got %v, want %v", hi, threshold, got, want)
			}
		}
	}
}

func TestMatchLanes(t *testing.T) {
	for _, bits := range []uint{2, 4, 8} {
		cpw := int(64 / bits)
		base := uint64(0x0123_4567_89AB_CDEF)
		if got := matchLanes(base, base, bits); got != int32(cpw) {
			t.Fatalf("bits=%d: identical words matched %d lanes, want %d", bits, got, cpw)
		}
		for lane := 0; lane < cpw; lane++ {
			flipped := base ^ 1<<(uint(lane)*bits) // change exactly char `lane`
			if got := matchLanes(base, flipped, bits); got != int32(lane) {
				t.Fatalf("bits=%d: first diff at lane %d reported as %d", bits, lane, got)
			}
		}
	}
}

// TestFoldBlockLELMatchesPack checks the online fold against the one-
// shot packing for every prefix length, including LELs at and past the
// uint16 sentinel (saturation).
func TestFoldBlockLELMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	var blocks []blockMeta
	var pack []uint64
	for j := int32(1); j <= 600; j++ {
		lel := int32(rng.Intn(70_000)) // some values saturate
		blocks = foldBlock(blocks, j, 0, lel)
		pack = foldBlockLEL(pack, j, lel)
		want := packBlockLELs(blocks)
		if len(want) != len(pack) {
			t.Fatalf("node %d: fold has %d words, pack %d", j, len(pack), len(want))
		}
		for w := range want {
			if pack[w] != want[w] {
				t.Fatalf("node %d word %d: fold %#x != pack %#x", j, w, pack[w], want[w])
			}
		}
	}
}

// TestNextBlockLEL checks the packed admission jump against a scalar
// walk of the block summaries, for thresholds straddling every block's
// maxLEL and for start positions at every lane offset.
func TestNextBlockLEL(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, nBlocks := range []int{1, 2, 3, 4, 5, 7, 8, 9, 30} {
		blocks := make([]blockMeta, nBlocks)
		for i := range blocks {
			blocks[i].maxLEL = int32(rng.Intn(120))
		}
		pack := packBlockLELs(blocks)
		for _, patlen := range []int32{1, 2, 50, 119, 120, 70_000} {
			t16 := satLEL16(patlen)
			for b := 0; b < nBlocks; b++ {
				got, _ := nextBlockLEL(pack, b, nBlocks-1, t16)
				want := nBlocks
				for s := b; s < nBlocks; s++ {
					if satLEL16(blocks[s].maxLEL) >= t16 {
						want = s
						break
					}
				}
				if got != want {
					t.Fatalf("nextBlockLEL(%d blocks, from %d, patlen %d) = %d, want %d",
						nBlocks, b, patlen, got, want)
				}
			}
		}
	}
}

// TestSWARDescentWordBoundaries is the word-boundary property suite:
// patterns of every length 1..65 sliced at every offset within a packed
// word, on both layouts, must agree with the scalar oracle — including
// the mutated near-miss at the pattern's last character. The text
// length is deliberately not a multiple of the chars-per-word count, so
// patterns reaching the end exercise the partially-filled last word.
func TestSWARDescentWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	text := randomRepetitive(rng, []byte("acgt"), 2048+77) // partial last packed word
	idx := Build(text)
	comp := mustFreeze(t, text, seq.DNA)

	prev := ActiveScanKernel()
	defer SetScanKernel(prev)

	check := func(p []byte) {
		t.Helper()
		SetScanKernel(KernelScalar)
		wantIdxEnd, wantIdxOK := endNodeOn(idx, p, nil)
		codes, ok := comp.encodePattern(p)
		if !ok {
			t.Fatalf("pattern %q not encodable", p)
		}
		wantCompEnd, wantCompOK := endNodeOn(comp, codes, nil)
		SetScanKernel(KernelSWAR)
		gotIdxEnd, gotIdxOK := endNodeOn(idx, p, nil)
		gotCompEnd, gotCompOK := endNodeOn(comp, codes, nil)
		if gotIdxOK != wantIdxOK || (gotIdxOK && gotIdxEnd != wantIdxEnd) {
			t.Fatalf("reference descent %q: swar (%d, %v) != scalar (%d, %v)",
				p, gotIdxEnd, gotIdxOK, wantIdxEnd, wantIdxOK)
		}
		if gotCompOK != wantCompOK || (gotCompOK && gotCompEnd != wantCompEnd) {
			t.Fatalf("compact descent %q: swar (%d, %v) != scalar (%d, %v)",
				p, gotCompEnd, gotCompOK, wantCompEnd, wantCompOK)
		}
		if gotIdxOK != gotCompOK {
			t.Fatalf("descent %q: layouts disagree (%v vs %v)", p, gotIdxOK, gotCompOK)
		}
	}

	// Every offset within a 32-char DNA word x every length straddling
	// one and two word boundaries, plus slices running into the text end.
	for off := 0; off < 32; off++ {
		for plen := 1; plen <= 65; plen++ {
			p := append([]byte(nil), text[off:off+plen]...)
			check(p)
			p[plen-1] = "acgt"[(int(p[plen-1])+1)%4] // near-miss at the last char
			check(p)
		}
		tail := append([]byte(nil), text[len(text)-off-1:]...)
		check(tail)
	}
}

// TestSWARScalarFallbackProtein pins the generic-fallback contract: the
// 5-bit protein packing does not tile a 64-bit word (64 % 5 != 0), so
// the SWAR kernel must decline and route compact descents through the
// scalar path — transparently, with identical results.
func TestSWARScalarFallbackProtein(t *testing.T) {
	if swarCapable(seq.Protein.Bits()) {
		t.Fatalf("protein packing (%d bits) unexpectedly swarCapable", seq.Protein.Bits())
	}
	rng := rand.New(rand.NewSource(406))
	text := randomRepetitive(rng, []byte("ACDEFGHIKLMNPQRSTVWY"), 900)
	comp := mustFreeze(t, text, seq.Protein)
	runBothKernels(t, func(t *testing.T, k ScanKernel) {
		for i := 0; i < 64; i++ {
			off := rng.Intn(len(text) - 40)
			p := text[off : off+1+rng.Intn(39)]
			if !comp.Contains(p) {
				t.Fatalf("kernel %v: protein Contains(%q) = false", k, p)
			}
		}
		if comp.Contains([]byte("ACDEFACDEFACDEFWWWWW")) != bruteContains(text, []byte("ACDEFACDEFACDEFWWWWW")) {
			t.Fatalf("kernel %v: protein miss disagrees with brute force", k)
		}
	})
}

// TestVertWordMatchesCharAt pins the packed-window extraction both
// layouts feed the descent kernel: every lane of every window must
// equal the scalar charAt, and lanes past the text end must be zero.
func TestVertWordMatchesCharAt(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	text := randomRepetitive(rng, []byte("acgt"), 203)
	idx := Build(text)
	comp := mustFreeze(t, text, seq.DNA)

	n := int32(len(text))
	for v := int32(0); v < n; v++ {
		w := idx.vertWord(v)
		for k := int32(0); k < 8; k++ {
			lane := byte(w >> (uint(k) * 8))
			want := byte(0)
			if v+k < n {
				want = idx.charAt(v + k)
			}
			if lane != want {
				t.Fatalf("reference vertWord(%d) lane %d = %#x, want %#x", v, k, lane, want)
			}
		}
		cw := comp.vertWord(v)
		bits := comp.vertBits()
		mask := uint64(1)<<bits - 1
		for k := int32(0); k < int32(64/bits); k++ {
			lane := byte(cw >> (uint(k) * bits) & mask)
			want := byte(0)
			if v+k < n {
				want = comp.charAt(v + k)
			}
			if lane != want {
				t.Fatalf("compact vertWord(%d) lane %d = %#x, want %#x", v, k, lane, want)
			}
		}
	}
}

// TestLELMaskMatchesScalar pins both layouts' candidate masks against a
// per-node linkOf walk: every block, every start offset within it (so
// each lane alignment and tail length is exercised), texts whose last
// block is partial or shorter than one lane word, and thresholds on
// both sides of the uint16 saturation boundary over a text whose LELs
// overflow it. The mask may only exceed the exact answer where the
// layout saturates: on the compact layout, at a sentinel lane.
func TestLELMaskMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	texts := [][]byte{
		[]byte("a"), []byte("ac"), []byte("aca"), // n < 4
		randomRepetitive(rng, []byte("acgt"), 64),  // exactly one block
		randomRepetitive(rng, []byte("acgt"), 700), // partial last block
		[]byte(strings.Repeat("a", 70_000)),        // LELs past 0xFFFF
	}
	for _, text := range texts {
		idx := Build(text)
		comp := mustFreeze(t, text, seq.DNA)
		n := int32(len(text))
		if n == 70_000 && len(comp.lelOverflow) == 0 {
			t.Fatal("overflow text produced no saturated LEL")
		}
		for _, patlen := range []int32{1, 2, 3, 5, 9, 17, 0xFFFE, 0xFFFF, 0x10000, 69_000} {
			for b := 0; b <= blockFor(n); b++ {
				last := blockLastNode(b)
				if last > n {
					last = n
				}
				for j := last - blockSize + 1; j <= last; j++ {
					if j < 1 {
						continue
					}
					var exact, sat uint64
					for s := j; s <= last; s++ {
						if _, lel := idx.linkOf(s); lel >= patlen {
							exact |= 1 << uint(s-j)
						}
						if comp.lel[s] == labelSentinel {
							sat |= 1 << uint(s-j)
						}
					}
					if got, _ := idx.lelMask(j, last, patlen); got != exact {
						t.Fatalf("n=%d reference lelMask(%d, %d, %d) = %#x, want %#x", n, j, last, patlen, got, exact)
					}
					got, words := comp.lelMask(j, last, patlen)
					if got&exact != exact || got&^exact&^sat != 0 {
						t.Fatalf("n=%d compact lelMask(%d, %d, %d) = %#x, exact %#x, saturated %#x", n, j, last, patlen, got, exact, sat)
					}
					if want := int64(last-j+1) / 4; words != want {
						t.Fatalf("n=%d compact lelMask(%d, %d) compared %d words, want %d", n, j, last, words, want)
					}
				}
			}
		}
	}
}

// TestParseScanKernel pins the flag surface.
func TestParseScanKernel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ScanKernel
		ok   bool
	}{
		{"swar", KernelSWAR, true},
		{"scalar", KernelScalar, true},
		{"avx2", 0, false},
		{"", 0, false},
	} {
		got, err := ParseScanKernel(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseScanKernel(%q) = %v, %v", tc.in, got, err)
		}
	}
	if KernelSWAR.String() != "swar" || KernelScalar.String() != "scalar" {
		t.Fatal("kernel names drifted from flag values")
	}
	if isa := ScanKernelISA(); isa != "amd64" && isa != "generic" {
		t.Fatalf("ScanKernelISA() = %q", isa)
	}
}

// TestScanKernelSwapUnderLoad flips the kernel while queries run on
// both layouts; run with -race to validate that SetScanKernel is safe
// against live readers and every query stays internally consistent.
func TestScanKernelSwapUnderLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	text := randomRepetitive(rng, []byte("acgt"), 3000)
	idx := Build(text)
	comp := mustFreeze(t, text, seq.DNA)
	prev := ActiveScanKernel()
	defer SetScanKernel(prev)

	const workers = 4
	patterns := make([][][]byte, workers)
	want := make([][][]int, workers)
	for w := range patterns {
		for q := 0; q < 40; q++ {
			off := rng.Intn(len(text) - 20)
			p := append([]byte(nil), text[off:off+3+rng.Intn(16)]...)
			patterns[w] = append(patterns[w], p)
			want[w] = append(want[w], idx.FindAll(p))
		}
	}

	var workersWG, flipperWG sync.WaitGroup
	stop := make(chan struct{})
	flipperWG.Add(1)
	go func() { // the flipper
		defer flipperWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				SetScanKernel(KernelScalar)
			} else {
				SetScanKernel(KernelSWAR)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			for round := 0; round < 30; round++ {
				for q, p := range patterns[w] {
					if got := idx.FindAll(p); !equalInts(got, want[w][q]) {
						t.Errorf("worker %d: FindAll(%q) = %v, want %v", w, p, got, want[w][q])
						return
					}
					if got := comp.Count(p); got != len(want[w][q]) {
						t.Errorf("worker %d: compact Count(%q) = %d, want %d", w, p, got, len(want[w][q]))
						return
					}
				}
			}
		}(w)
	}
	workersWG.Wait()
	close(stop)
	flipperWG.Wait()
}

// TestKernelInvariantWorkAccounting pins the contract that NodesChecked
// and the block-skip decision counters are identical across kernels —
// the SWAR prefilters cover the same nodes in fewer machine ops — while
// WordsCompared is non-zero only under SWAR.
func TestKernelInvariantWorkAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(410))
	text := randomRepetitive(rng, []byte("acgt"), 5000)
	idx := Build(text)
	comp := mustFreeze(t, text, seq.DNA)
	prev := ActiveScanKernel()
	defer SetScanKernel(prev)

	type work struct {
		visited, skipped, scanned int64
	}
	measure := func(s interface {
		FindAll(p []byte) []int
	}, p []byte, k ScanKernel) (work, int64) {
		SetScanKernel(k)
		// Drive the scan directly so the stats are observable.
		var st scanStats
		var words int64
		switch v := s.(type) {
		case *Index:
			first, ok := endNodeOn(v, p, nil)
			if !ok {
				return work{}, 0
			}
			sc := getScratch(v.textLen())
			st, _, _ = occEachOn(context.Background(), v, sc, first, int32(len(p)), func(int32) bool { return true })
			putScratch(sc)
		case *CompactIndex:
			codes, ok := v.encodePattern(p)
			if !ok {
				return work{}, 0
			}
			first, ok := endNodeOn(v, codes, nil)
			if !ok {
				return work{}, 0
			}
			sc := getScratch(v.textLen())
			st, _, _ = occEachOn(context.Background(), v, sc, first, int32(len(p)), func(int32) bool { return true })
			putScratch(sc)
		}
		words = st.words
		return work{st.visited, st.blocksSkipped, st.blocksScanned}, words
	}

	for trial := 0; trial < 60; trial++ {
		off := rng.Intn(len(text) - 40)
		p := text[off : off+2+rng.Intn(36)]
		for _, s := range []interface{ FindAll(p []byte) []int }{idx, comp} {
			scalarWork, scalarWords := measure(s, p, KernelScalar)
			swarWork, swarWords := measure(s, p, KernelSWAR)
			if scalarWork != swarWork {
				t.Fatalf("%T %q: work diverges across kernels: scalar %+v, swar %+v",
					s, p, scalarWork, swarWork)
			}
			if scalarWords != 0 {
				t.Fatalf("%T %q: scalar kernel reported %d word compares", s, p, scalarWords)
			}
			_ = swarWords // zero is legal (e.g. scan never entered SWAR loops)
		}
	}
}

// TestDefaultKernelIsSWAR pins the zero-value default: the package's
// pre-existing differential suites implicitly exercise the SWAR paths
// because SWAR is what queries run unless explicitly disabled.
func TestDefaultKernelIsSWAR(t *testing.T) {
	var knob ScanKernel // zero value
	if knob != KernelSWAR {
		t.Fatal("zero-value ScanKernel is not KernelSWAR")
	}
	if ActiveScanKernel() != KernelSWAR {
		t.Fatalf("active kernel is %v, want swar (a test leaked a SetScanKernel)", ActiveScanKernel())
	}
}
