package core

import (
	"fmt"
	mbits "math/bits"
	"sync"
	"sync/atomic"

	"github.com/spine-index/spine/internal/seq"
)

// Word-parallel (SWAR) scan kernels.
//
// internal/seq already stores vertebra labels packed — 2 bits per DNA
// symbol, one byte per raw-alphabet character — yet the §3 pattern
// descent and the §4 occurrence scan historically examined one
// character (or one backbone label) per step. Packing 8–32 characters
// into a uint64 and comparing word-at-a-time is the packed-compact-trie
// idea (Takagi et al.) and the word-level trick of sparse-suffix-tree
// matching (Kolpakov–Kucherov): an XOR lights up the first differing
// lane, a trailing-zero count locates it, and one machine op replaces
// up to 32 character comparisons. Three hot paths use it:
//
//   - Pattern descent: runs of vertebra extensions — the overwhelmingly
//     common descent step on genomic data — are matched as whole packed
//     words of text against the pattern packed once per query.
//   - Occurrence scan: inside an admitted block, the lel(j) >= |p| test
//     runs over 4 packed uint16 lanes (compact layout) or 2 int32 lanes
//     (reference layout) per op and is answered for the whole block at
//     once as a 64-bit candidate mask (store.lelMask).
//   - Block-skip admission: per-block maxLEL summaries are additionally
//     kept as saturated uint16 lanes, so runs of inadmissible blocks
//     (256 backbone nodes per word) are rejected with one compare.
//
// The scalar paths are retained verbatim as the differential oracle —
// the same policy the block-skip index followed — and SetScanKernel
// flips between them at runtime. Word loads go through the build-tagged
// helpers in kernel_amd64.go / kernel_generic.go: the amd64 path
// (`amd64 && !purego`) issues direct unaligned loads, the portable
// fallback assembles words byte by byte and runs on any architecture.

// ScanKernel selects the character-comparison kernel for descents and
// occurrence scans.
type ScanKernel uint8

const (
	// KernelSWAR is the word-parallel kernel (the default): packed-word
	// descent, lane-parallel lel tests, word-parallel block admission.
	KernelSWAR ScanKernel = iota
	// KernelScalar is the character-at-a-time oracle: the paper's loops,
	// retained verbatim for differential testing and benchmarking.
	KernelScalar
)

// String returns the kernel's flag-friendly name.
func (k ScanKernel) String() string {
	if k == KernelScalar {
		return "scalar"
	}
	return "swar"
}

// ParseScanKernel maps a flag value ("swar" or "scalar") to a kernel.
func ParseScanKernel(name string) (ScanKernel, error) {
	switch name {
	case "swar":
		return KernelSWAR, nil
	case "scalar":
		return KernelScalar, nil
	}
	return 0, fmt.Errorf("core: unknown scan kernel %q (want swar or scalar)", name)
}

// scalarKernel disables the SWAR kernel, routing descents and scan
// inner loops through the scalar oracle. Zero value = SWAR on.
var scalarKernel atomic.Bool

// SetScanKernel selects the active kernel, returning the previous one.
// It is safe to flip concurrently with queries; each query reads the
// knob once at entry, so an individual query is all-SWAR or all-scalar
// but never mixed mid-scan.
func SetScanKernel(k ScanKernel) (previous ScanKernel) {
	if scalarKernel.Swap(k == KernelScalar) {
		return KernelScalar
	}
	return KernelSWAR
}

// ActiveScanKernel reports the kernel queries currently select.
func ActiveScanKernel() ScanKernel {
	if scalarKernel.Load() {
		return KernelScalar
	}
	return KernelSWAR
}

// ScanKernelISA names the word-load implementation compiled in:
// "amd64" for the unaligned-load fast path, "generic" for the portable
// fallback (any architecture, or the purego build tag).
func ScanKernelISA() string { return kernelISA }

// swarCapable reports whether the packed width supports whole-word
// character comparison: lanes must tile a uint64 exactly so a
// trailing-zero count maps to a character index. Power-of-two widths
// (raw bytes, DNA's 2 bits, 4-bit codes) qualify; odd widths like the
// 5-bit protein packing fall back to the scalar descent.
func swarCapable(bits uint) bool { return bits > 0 && bits <= 8 && 64%bits == 0 }

// SWAR lane comparisons. laneGE16/laneGE32 compare each unsigned lane
// of x against a broadcast threshold, returning a mask with the lane's
// top bit set where lane >= t; the first passing lane is then
// TrailingZeros64(mask)/laneWidth. The formula is the classic
// borrow-isolation compare: force each lane's top bit before
// subtracting the threshold's low bits (so borrows cannot cross
// lanes), then patch the result with the true top-bit comparison:
//
//	x >= t  ⟺  (xhi > thi) ∨ (xhi == thi ∧ xlo >= tlo)
const (
	hi16 = uint64(0x8000_8000_8000_8000)
	hi32 = uint64(0x8000_0000_8000_0000)
)

// laneGE16 returns, for each of the 4 uint16 lanes of x, the lane's top
// bit set iff lane >= t (unsigned).
func laneGE16(x uint64, t uint16) uint64 {
	y := uint64(t) * 0x0001_0001_0001_0001 // broadcast
	p := ((x | hi16) - (y &^ hi16)) & hi16 // per-lane xlo >= tlo
	g := x &^ y & hi16                     // xhi > thi
	e := ^(x ^ y) & hi16                   // xhi == thi
	return g | (e & p)
}

// laneGE32 returns, for each of the 2 uint32 lanes of x, the lane's top
// bit set iff lane >= t (unsigned).
func laneGE32(x uint64, t uint32) uint64 {
	y := uint64(t) * 0x0000_0001_0000_0001
	p := ((x | hi32) - (y &^ hi32)) & hi32
	g := x &^ y & hi32
	e := ^(x ^ y) & hi32
	return g | (e & p)
}

// swarPat is a pooled pattern packed into words for the SWAR descent:
// the pattern is packed once per query, then any 64-bit window of it is
// extracted at char granularity to compare against a text window.
type swarPat struct {
	words []uint64
	bits  uint
}

var swarPatPool = sync.Pool{New: func() any { return new(swarPat) }}

// getSwarPat packs p (already in the store's native representation) at
// the given width into a pooled buffer. Steady state allocates nothing.
func getSwarPat(p []byte, bits uint) *swarPat {
	sp := swarPatPool.Get().(*swarPat)
	sp.bits = bits
	sp.words = seq.PackWords(p, bits, sp.words[:0])
	return sp
}

func putSwarPat(sp *swarPat) { swarPatPool.Put(sp) }

// wordAt returns the 64-bit pattern window starting at char i.
func (sp *swarPat) wordAt(i int32) uint64 {
	return seq.WordFrom(sp.words, uint(i)*sp.bits)
}

// satLEL16 saturates a pattern length into the uint16 lane space used
// by the packed block summaries and the compact layout's LEL fields.
func satLEL16(v int32) uint16 {
	if v >= int32(labelSentinel) {
		return labelSentinel
	}
	return uint16(v)
}

// matchLanes returns how many leading characters of two packed windows
// agree: 64/bits when the windows are identical, otherwise the index of
// the first differing character.
func matchLanes(tw, pw uint64, bits uint) int32 {
	diff := tw ^ pw
	if diff == 0 {
		return int32(64 / bits)
	}
	return int32(uint(mbits.TrailingZeros64(diff)) / bits)
}

// Packed block-maxLEL summaries: lane b&3 of word b>>2 holds
// min(blocks[b].maxLEL, 0xFFFF). A whole word summarizes 4 blocks =
// 256 backbone nodes, so one laneGE16 decides a quarter-kilonode of
// backbone. The pack is derived state: folded online alongside the
// blockMeta slice and rebuilt wherever the blocks are rebuilt.

// foldBlockLEL extends the packed maxLEL lanes with node j's LEL,
// mirroring foldBlock's append/update split.
func foldBlockLEL(pack []uint64, j, lel int32) []uint64 {
	b := blockFor(j)
	w, shift := b>>2, uint(b&3)*16
	if w >= len(pack) {
		pack = append(pack, 0)
	}
	v := uint64(satLEL16(lel))
	if cur := (pack[w] >> shift) & 0xFFFF; v > cur {
		pack[w] = pack[w]&^(uint64(0xFFFF)<<shift) | v<<shift
	}
	return pack
}

// packBlockLELs builds the packed maxLEL lanes from a complete block
// summary slice — the one-shot form used at freeze, finish and load.
func packBlockLELs(blocks []blockMeta) []uint64 {
	pack := make([]uint64, (len(blocks)+3)/4)
	for b, m := range blocks {
		pack[b>>2] |= uint64(satLEL16(m.maxLEL)) << (uint(b&3) * 16)
	}
	return pack
}

// nextBlockLEL returns the first block in [b, lastBlock] whose packed
// maxLEL lane passes the saturated lel >= t test (a conservative
// superset of full admission), or lastBlock+1, plus the word compares
// spent. Lanes beyond lastBlock are zero and t >= 1, so they never
// pass.
func nextBlockLEL(pack []uint64, b, lastBlock int, t uint16) (int, int64) {
	var words int64
	for b <= lastBlock {
		w := pack[b>>2] >> (uint(b&3) * 16)
		words++
		if m := laneGE16(w, t); m != 0 {
			return b + mbits.TrailingZeros64(m)>>4, words
		}
		b += 4 - (b & 3)
	}
	return lastBlock + 1, words
}

// SetScanParallelism and ScanParallelism are an inert pair: the
// intra-query parallel scan they tuned is deleted and every scan runs on
// one goroutine, so the setter ignores its argument and both report 1.
// They remain only because benchmark/probes.go — frozen outside
// benchmark-archetype PRs — still calls them; the next benchmark PR
// deletes them together with the probes' default/*_seq arm split.
func SetScanParallelism(int) (previous int) { return 1 }

// ScanParallelism reports 1; see SetScanParallelism.
func ScanParallelism() int { return 1 }

// lowestLane returns the index of mask's lowest set bit and mask without
// it (mask != 0). It counts the zeros below the bit with a population
// count rather than TrailingZeros64: for a known-nonzero argument the
// compiler emits a bare BSFQ, whose destination register is also an
// input, and in the probe loops the register allocator reuses the
// register that last held the membership word — every candidate then
// waits for the previous candidate's whole load chain, which tripled the
// cost of a dense block. POPCNTQ gets its dependency-breaking XOR from
// the compiler.
func lowestLane(mask uint64) (k int32, rest uint64) {
	t := mask - 1
	return int32(mbits.OnesCount64(^mask & t)), mask & t
}
