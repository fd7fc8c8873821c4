package core

import (
	"bytes"
	"context"
	mbits "math/bits"
	"math/rand"
	"sync"
	"testing"

	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/trace"
)

func equalBlocks(a, b []blockMeta) bool {
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

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "acgt"[rng.Intn(4)]
	}
	return s
}

func TestBlockHelpers(t *testing.T) {
	for _, tc := range []struct {
		node int32
		want int
	}{{1, 0}, {2, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2}} {
		if got := blockFor(tc.node); got != tc.want {
			t.Errorf("blockFor(%d) = %d, want %d", tc.node, got, tc.want)
		}
	}
	if got := blockLastNode(0); got != 64 {
		t.Errorf("blockLastNode(0) = %d, want 64", got)
	}
	if got := blockLastNode(2); got != 192 {
		t.Errorf("blockLastNode(2) = %d, want 192", got)
	}
	for _, tc := range []struct{ n, want int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}} {
		if got := blocksFor(tc.n); got != tc.want {
			t.Errorf("blocksFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// The online fold in setLink must produce, after every append, exactly
// the skip index a one-shot rebuild over the current backbone produces.
func TestOnlineBlocksMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	text := randDNA(rng, 1000)
	idx := New()
	for i, c := range text {
		idx.Append(c)
		if i%97 == 0 || i == len(text)-1 || i == blockSize-1 || i == blockSize {
			want := buildBlocksOn(idx)
			if !equalBlocks(idx.blocks, want) {
				t.Fatalf("after %d appends: online blocks diverge from rebuild", i+1)
			}
		}
	}
	if len(idx.blocks) != blocksFor(idx.Len()) {
		t.Fatalf("got %d blocks for n=%d, want %d", len(idx.blocks), idx.Len(), blocksFor(idx.Len()))
	}
}

// Freeze and CompactBuilder must carry the same skip index as a rebuild
// over the frozen layout.
func TestCompactBlocksMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	text := randDNA(rng, 700)
	comp := mustFreeze(t, text, seq.DNA)
	if want := buildBlocksOn(comp); !equalBlocks(comp.blocks, want) {
		t.Fatal("Freeze blocks diverge from rebuild")
	}
	cb, err := NewCompactBuilder(seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range text {
		if err := cb.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	built := cb.Finish()
	if want := buildBlocksOn(built); !equalBlocks(built.blocks, want) {
		t.Fatal("CompactBuilder blocks diverge from rebuild")
	}
	if !equalBlocks(comp.blocks, built.blocks) {
		t.Fatal("Freeze and CompactBuilder skip indexes disagree")
	}
}

// Block admission must be conservative: a rejected block can never
// contain an occurrence end. Checked directly against the scalar scan's
// end set for every (pattern, block) pair of a repeat-rich text.
func TestBlockAdmitConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randDNA(rng, 200)
	text := append(append(append([]byte{}, base...), base[:150]...), base...)
	idx := Build(text)
	for _, plen := range []int{2, 5, 17, 63, 64, 65, 150} {
		p := text[20 : 20+plen]
		first, ok := endNodeOn(idx, p, nil)
		if !ok {
			t.Fatalf("|P|=%d: sampled pattern not found", plen)
		}
		ends := []int32{first}
		scalarEachOn(context.Background(), idx, first, int32(plen), func(j int32) bool {
			ends = append(ends, j)
			return true
		})
		isEnd := map[int32]bool{}
		for _, e := range ends {
			isEnd[e] = true
		}
		// Replay the admission decisions with the exact member horizon the
		// accelerated scan would hold entering each block.
		maxMember := first
		for _, e := range ends[1:] {
			if e > maxMember {
				maxMember = e
			}
		}
		for b := range idx.blocks {
			lo, hi := int32(b)<<blockShift+1, blockLastNode(b)
			if hi <= first {
				continue
			}
			if idx.blocks[b].admit(int32(plen), first, maxMember) {
				continue
			}
			for j := lo; j <= hi && j <= int32(idx.Len()); j++ {
				if j > first && isEnd[j] {
					t.Fatalf("|P|=%d: block %d rejected but contains occurrence end %d", plen, b, j)
				}
			}
		}
	}
}

// CountPrefixCtx must agree with filtering the full position list.
func TestCountPrefixCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randDNA(rng, 300)
	text := append(append([]byte{}, base...), base...)
	idx := Build(text)
	ctx := context.Background()
	for _, plen := range []int{1, 3, 8, 40} {
		p := text[5 : 5+plen]
		all := idx.FindAll(p)
		for _, maxStart := range []int{-1, 0, 1, 100, 299, 300, 301, len(text)} {
			got, _, err := idx.CountPrefixCtx(ctx, p, maxStart)
			if err != nil {
				t.Fatal(err)
			}
			want := len(all)
			if maxStart >= 0 {
				want = 0
				for _, pos := range all {
					if pos < maxStart {
						want++
					}
				}
			}
			if got != want {
				t.Fatalf("CountPrefixCtx(|P|=%d, maxStart=%d) = %d, want %d", plen, maxStart, got, want)
			}
		}
	}
	if got, _, err := idx.CountPrefixCtx(ctx, nil, 10); err != nil || got != 10 {
		t.Fatalf("empty pattern bounded count = %d, %v; want 10", got, err)
	}
}

// Acceptance: on a large (>1MB) text and a selective pattern (|P| far
// above the median LEL) the accelerated scan must actually skip blocks,
// report them in the trace, and keep the NodesChecked partition exact.
func TestBlocksSkippedOnSelectivePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	text := randDNA(rng, 1<<20|12345)
	idx := Build(text)
	p := text[512000 : 512000+48] // random 48-mer: almost surely unique
	tr := trace.New()
	ctx := trace.NewContext(context.Background(), tr)
	res, err := idx.FindAllCtx(ctx, p, 0)
	if err != nil {
		t.Fatal(err)
	}

	prev := SetBlockSkip(false)
	scalar := idx.FindAll(p)
	SetBlockSkip(prev)
	if !equalInts(res.Positions, scalar) {
		t.Fatalf("accelerated positions %v != scalar %v", res.Positions, scalar)
	}

	var skipped, scanned, nodes int64
	for _, rec := range tr.Records() {
		nodes += rec.Nodes
		skipped += rec.BlocksSkipped
		scanned += rec.BlocksScanned
	}
	if skipped == 0 {
		t.Fatal("selective pattern on 1MB text skipped no blocks")
	}
	if skipped < scanned {
		t.Fatalf("selective pattern skipped %d blocks but scanned %d", skipped, scanned)
	}
	if nodes != res.NodesChecked {
		t.Fatalf("trace Nodes sum %d != NodesChecked %d (partition broken)", nodes, res.NodesChecked)
	}
	if int64(idx.Len()) < 4*res.NodesChecked {
		t.Fatalf("accelerated scan visited %d of %d nodes — skip index ineffective", res.NodesChecked, idx.Len())
	}
}

// Serialization: v2 streams carry the skip index verbatim, and loading
// must reject a stream whose block count disagrees with n.
func TestSerializeRoundTripBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := randDNA(rng, 400)
	text := append(append([]byte{}, base...), base...)
	comp := mustFreeze(t, text, seq.DNA)
	var buf bytes.Buffer
	if err := comp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCompact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !equalBlocks(back.blocks, comp.blocks) {
		t.Fatal("round-tripped skip index differs")
	}
	p := text[10:42]
	if got, want := back.FindAll(p), comp.FindAll(p); !equalInts(got, want) {
		t.Fatalf("round-tripped FindAll = %v, want %v", got, want)
	}
}

// TestScratchBitsetReuse pins the pooled membership bitset's invariant —
// a scratch in the pool is all-zero over its whole capacity — across
// the cases that could break it: one scratch serving indexes of
// different sizes, a query that dirties more words than
// scratchDirtyBound (the full-clear reset), and concurrent queries.
func TestScratchBitsetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1201))
	big := Build(randDNA(rng, 80_000))
	small := mustFreeze(t, randDNA(rng, 300), seq.DNA)

	// The scratch itself, whichever one the pool hands back.
	sc := getScratch(big.textLen())
	for x := int32(0); x <= big.textLen(); x += 37 { // > scratchDirtyBound words
		sc.add(x)
	}
	if len(sc.dirty) <= scratchDirtyBound {
		t.Fatalf("dirtied %d words, need more than %d", len(sc.dirty), scratchDirtyBound)
	}
	if sc.bits[0]>>37&1 == 0 || sc.bits[0]>>38&1 != 0 {
		t.Fatal("bitset membership is wrong")
	}
	putScratch(sc)
	for _, n := range []int32{small.textLen(), big.textLen()} {
		sc = getScratch(n)
		sc.add(n) // the last node must be addressable
		putScratch(sc)
		if len(sc.dirty) != 0 {
			t.Fatalf("n=%d: dirty list survived the reset", n)
		}
		for w, v := range sc.bits[:cap(sc.bits)] {
			if v != 0 {
				t.Fatalf("n=%d: word %d of a pooled scratch is %#x", n, w, v)
			}
		}
	}

	// End to end: answers stay those of the scalar oracle whatever the
	// previous user of the scratch left behind.
	type query struct {
		lay  interface{ FindAll(p []byte) []int }
		pat  []byte
		want []int
	}
	prev := SetBlockSkip(false)
	var qs []query
	for _, pat := range [][]byte{[]byte("a"), []byte("acg"), big.text[500:512]} { // "a": ~20k members over every word
		qs = append(qs, query{big, pat, big.FindAll(pat)}, query{small, pat[:1], small.FindAll(pat[:1])})
	}
	SetBlockSkip(prev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(qs); i++ {
				q := qs[(g+i)%len(qs)]
				if got := q.lay.FindAll(q.pat); !equalInts(got, q.want) {
					t.Errorf("goroutine %d: FindAll(%q) on %T diverges from the oracle (%d vs %d hits)", g, q.pat, q.lay, len(got), len(q.want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// removedProbeLoop is the per-candidate body both scan loops ran before
// the layouts took it over: linkOf, the exact lel >= patlen test and the
// bit test, in candidate order.
func removedProbeLoop[S store](s S, base int32, mask uint64, patlen int32, sc *scanScratch) (int32, uint64) {
	for ; mask != 0; mask &= mask - 1 {
		j := base + int32(mbits.TrailingZeros64(mask))
		link, lel := s.linkOf(j)
		if lel >= patlen && sc.bits[link>>6]>>(uint(link)&63)&1 != 0 {
			return j, mask & (mask - 1)
		}
	}
	return 0, 0
}

// checkNextMember walks every block of s with the masks either kernel
// hands the probe (all nodes of the block under the scalar kernel, the
// lane test's under SWAR) and a random submask, over a sparse and a full
// member set and thresholds around the block size and the 2-byte
// sentinel, and requires nextMember to return what removedProbeLoop
// does, rest mask included, hit after hit.
func checkNextMember[S store](t *testing.T, name string, s S, rng *rand.Rand) {
	t.Helper()
	n := s.textLen()
	for _, every := range []int32{16, 1} {
		sc := getScratch(n)
		for x := int32(0); x <= n; x++ {
			if every == 1 || rng.Int31n(every) == 0 {
				sc.add(x)
			}
		}
		for _, patlen := range []int32{1, 2, 63, 64, 65, 0xFFFE, 0xFFFF, 0x10000} {
			for b := 0; b < blocksFor(int(n)); b++ {
				base, last := int32(b)<<blockShift+1, blockLastNode(b)
				if last > n {
					last = n
				}
				all := ^uint64(0) >> uint(63-(last-base))
				swar, _ := s.lelMask(base, last, patlen)
				for _, mask := range []uint64{all, swar, all & rng.Uint64()} {
					for mask != 0 {
						wantJ, wantRest := removedProbeLoop(s, base, mask, patlen, sc)
						j, rest := s.nextMember(base, mask, patlen, sc.bits)
						if j != wantJ || rest != wantRest {
							t.Fatalf("%s: nextMember(base=%d, mask=%#x, patlen=%d) over 1/%d members = (%d, %#x), the removed loop gives (%d, %#x)",
								name, base, mask, patlen, every, j, rest, wantJ, wantRest)
						}
						mask = rest
					}
				}
			}
		}
		putScratch(sc)
	}
}

// TestNextMemberMatchesLinkOf is the differential test of the layouts'
// probe, on corpora that reach every arm of the compact decode: untagged
// refs, all seven inline rib shapes, an empty spill table (the dummy
// row), LELs past the 2-byte sentinel, and — on a 16-letter alphabet —
// spilled rows.
func TestNextMemberMatchesLinkOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	x := randDNA(rng, 66_000)
	dna := Build(append(append([]byte{}, x...), x...)) // second copy: LELs up to 66 000
	dnaComp, err := Freeze(dna, seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	wide := Build(randomRepetitive(rng, []byte(hex16Letters), 6000))
	wideComp, err := Freeze(wide, hex16)
	if err != nil {
		t.Fatal(err)
	}
	untagged := 0
	for _, ref := range dnaComp.ref[1:] {
		if ref&refTag == 0 {
			untagged++
		}
	}
	if untagged == 0 || len(dnaComp.spill.ld) != 0 || len(dnaComp.lelOverflow) == 0 || len(wideComp.spill.ld) == 0 {
		t.Fatalf("corpora miss an arm: %d untagged refs, %d DNA spill rows, %d overflowed LELs, %d wide spill rows",
			untagged, len(dnaComp.spill.ld), len(dnaComp.lelOverflow), len(wideComp.spill.ld))
	}
	for shape := 1; shape < numShapes; shape++ {
		if len(dnaComp.tables[shape].ld) == 0 {
			t.Fatalf("DNA corpus has no node of rib shape %d", shape)
		}
	}
	checkNextMember(t, "reference/dna", dna, rng)
	checkNextMember(t, "compact/dna", dnaComp, rng)
	checkNextMember(t, "reference/wide", wide, rng)
	checkNextMember(t, "compact/wide", wideComp, rng)

	// Why the probe returns at each hit: in a run of one letter every
	// node links to its predecessor, so node 4 is an occurrence end of
	// "aa" only once node 3, found by the same block's previous call, has
	// been admitted to the set.
	run := Build(bytes.Repeat([]byte("a"), 200))
	runComp := mustFreeze(t, run.text, seq.DNA)
	perHit := func(name string, probe func(mask uint64, sc *scanScratch) (int32, uint64)) {
		sc := getScratch(200)
		defer putScratch(sc)
		sc.add(2) // first occurrence end of "aa"
		after2 := ^uint64(0) &^ 3
		j, rest := probe(after2, sc)
		if j != 3 {
			t.Fatalf("%s: first hit is node %d, want 3", name, j)
		}
		if j, _ := probe(rest, sc); j != 0 {
			t.Fatalf("%s: node %d hit before node 3 was admitted", name, j)
		}
		sc.add(3)
		if j, _ := probe(rest, sc); j != 4 {
			t.Fatalf("%s: after admitting node 3 the next hit is %d, want 4", name, j)
		}
	}
	perHit("reference", func(mask uint64, sc *scanScratch) (int32, uint64) { return run.nextMember(1, mask, 2, sc.bits) })
	perHit("compact", func(mask uint64, sc *scanScratch) (int32, uint64) { return runComp.nextMember(1, mask, 2, sc.bits) })

	// The probe's rows are derived state: validate must notice rows that
	// are equal copies of the tables instead of the tables themselves, and
	// a slot 0 that is neither the spill table nor the dummy row.
	for _, tc := range []struct {
		name string
		c    *CompactIndex
		slot int
		with []uint32
	}{
		{"copied inline table", dnaComp, 3, append([]uint32(nil), dnaComp.tables[3].ld...)},
		{"copied spill table", wideComp, 0, append([]uint32(nil), wideComp.spill.ld...)},
		{"missing dummy row", dnaComp, 0, nil},
	} {
		if err := tc.c.validate(); err != nil {
			t.Fatalf("%s: intact index rejected: %v", tc.name, err)
		}
		saved := tc.c.ldTabs[tc.slot]
		tc.c.ldTabs[tc.slot] = tc.with
		err := tc.c.validate()
		tc.c.ldTabs[tc.slot] = saved
		if err == nil {
			t.Fatalf("%s: validate accepted probe rows that do not alias the tables", tc.name)
		}
	}
}
