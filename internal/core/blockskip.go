package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spine-index/spine/internal/trace"
)

// Block-skip occurrence scanning.
//
// The §4 all-occurrence scan visits every backbone node after the first
// match and, per node, tests lel(j) >= |p| and probes link(j) against
// the target buffer. Two observations make most of that work avoidable:
//
//   - Node labels are wildly non-uniform: LEL concentrates near
//     log_sigma(n) (Table 3), so for a pattern longer than that, runs of
//     64 consecutive nodes almost never contain a single node with
//     lel >= |p|. Folding each run into a blockMeta{maxLEL, minLink,
//     maxLink} summary lets the scanner reject the whole run with one
//     cache-resident comparison — the block-max trick of word/block-level
//     sparse-suffix-tree matching (Kolpakov-Kucherov-Starikovskaya) and
//     packed compact tries (Takagi et al.) transplanted to the backbone.
//   - The target buffer only ever grows at the high end (each admitted
//     node exceeds all current members), so "is link(j) a member" does
//     not need the paper's sorted-buffer binary probe: a one-bit-per-node
//     set answers it with one read, and at n/8 bytes it stays
//     cache-resident where the probe is random.
//   - Inside an admitted block both halves of the per-node test are a
//     property of the layout: store.lelMask answers lel(j) >= |p| for
//     the whole block as one 64-bit candidate mask, and store.nextMember
//     walks that mask with the layout's own link decode, its slices in
//     locals, up to the next node whose link is a member.
//
// Every accelerated scan — collect, count, stream and the batch pass —
// walks the backbone through the one blockIter below and differs only
// in what it does with a member.
//
// The pre-existing scalar scan (scalarEachOn: containsSorted over a
// fresh buffer) is retained verbatim as the in-tree differential
// oracle; SetBlockSkip routes every public scan through it so tests and
// benchmarks can compare the two paths on identical inputs.

const (
	// blockShift sets the skip-index granularity: 1<<blockShift backbone
	// nodes per block. 64 keeps a block's labels within a cache line pair
	// while its 12-byte summary costs 0.19 bytes per indexed character.
	blockShift = 6
	blockSize  = 1 << blockShift
	// BlockSize exports the skip-index granularity for benchmarks and
	// work-accounting cross-checks (a skipped block covers at most
	// BlockSize nodes).
	BlockSize = blockSize
)

// blockMeta summarizes one run of blockSize consecutive backbone nodes:
// block b covers nodes b*blockSize+1 .. (b+1)*blockSize.
type blockMeta struct {
	maxLEL  int32 // max lel(j) over the block's nodes
	minLink int32 // min link(j)
	maxLink int32 // max link(j)
}

// blockFor returns the block index of backbone node j (j >= 1).
func blockFor(j int32) int { return int(j-1) >> blockShift }

// blockLastNode returns the last node of block b (may exceed n).
func blockLastNode(b int) int32 { return int32(b+1) << blockShift }

// blocksFor returns the number of blocks covering n backbone nodes.
func blocksFor(n int) int { return (n + blockSize - 1) / blockSize }

// foldBlock extends a block summary slice with node j's labels. Nodes
// must be folded in backbone order, which both the online Index append
// and the one-shot rebuilds guarantee.
func foldBlock(blocks []blockMeta, j, link, lel int32) []blockMeta {
	if (j-1)&(blockSize-1) == 0 {
		return append(blocks, blockMeta{maxLEL: lel, minLink: link, maxLink: link})
	}
	m := &blocks[len(blocks)-1]
	if lel > m.maxLEL {
		m.maxLEL = lel
	}
	if link < m.minLink {
		m.minLink = link
	}
	if link > m.maxLink {
		m.maxLink = link
	}
	return blocks
}

// buildBlocksOn folds the whole backbone of s into a fresh skip index —
// the one-shot form used by Freeze, CompactBuilder.Finish and
// deserialization of pre-block formats.
func buildBlocksOn[S store](s S) []blockMeta {
	n := s.textLen()
	blocks := make([]blockMeta, 0, blocksFor(int(n)))
	for j := int32(1); j <= n; j++ {
		link, lel := s.linkOf(j)
		blocks = foldBlock(blocks, j, link, lel)
	}
	return blocks
}

// blockSkipOff disables the accelerated scan, routing queries through
// the scalar oracle. Zero value = acceleration on.
var blockSkipOff atomic.Bool

// SetBlockSkip selects between the block-skip scan (true, the default)
// and the scalar oracle scan (false), returning the previous setting.
// It is safe to flip concurrently with queries; each query reads the
// knob once at entry.
func SetBlockSkip(on bool) (previous bool) {
	return !blockSkipOff.Swap(!on)
}

// BlockSkipEnabled reports whether the accelerated scan is selected.
func BlockSkipEnabled() bool { return !blockSkipOff.Load() }

// scanScratch is the pooled per-query scan state: the membership bitset
// standing in for the paper's sorted target buffer (bit x of word x>>6
// is node x), the words it dirtied, and a reusable end-node buffer for
// result staging. A pooled scratch is always all-zero: putScratch
// clears exactly the dirtied words, or the whole set once a query has
// dirtied more than scratchDirtyBound of them.
type scanScratch struct {
	bits  []uint64
	dirty []int32
	ends  []int32
}

// scratchDirtyBound caps the dirtied-word list; past it the reset is one
// full clear (a scan that admitted that many members cost far more).
const scratchDirtyBound = 1024

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// getScratch returns scratch with an empty membership set over nodes
// 0..n and an empty ends buffer. Steady state performs no allocation.
func getScratch(n int32) *scanScratch {
	sc := scratchPool.Get().(*scanScratch)
	words := int(n)>>6 + 1
	if cap(sc.bits) < words {
		sc.bits = make([]uint64, words)
	}
	sc.bits = sc.bits[:words]
	sc.ends = sc.ends[:0]
	return sc
}

func putScratch(sc *scanScratch) {
	if len(sc.dirty) > scratchDirtyBound {
		clear(sc.bits)
	} else {
		for _, w := range sc.dirty {
			sc.bits[w] = 0
		}
	}
	sc.dirty = sc.dirty[:0]
	scratchPool.Put(sc)
}

// add makes node x a member of the current target set.
func (sc *scanScratch) add(x int32) {
	w := x >> 6
	if sc.bits[w] == 0 && len(sc.dirty) <= scratchDirtyBound {
		sc.dirty = append(sc.dirty, w)
	}
	sc.bits[w] |= 1 << (uint(x) & 63)
}

// scanStats is the work accounting of one accelerated scan.
type scanStats struct {
	// visited counts backbone nodes actually examined (the accelerated
	// path's NodesChecked contribution; skipped nodes are free): every
	// node of an admitted block, whichever of them the candidate mask
	// then selects. The SWAR kernel covers the same nodes in fewer
	// machine ops, so this metric is kernel-invariant by design — the
	// differential suite asserts exact equality across kernels.
	visited int64
	// blocksSkipped / blocksScanned count skip-index decisions.
	blocksSkipped int64
	blocksScanned int64
	// words counts 64-bit SWAR comparisons: packed-word admission probes
	// plus the lane words of each admitted block's candidate mask; zero
	// under the scalar kernel.
	words int64
	// raIssued / raHits count readahead windows issued and range-cache
	// hits when a disk-backed store registered a scan readahead sink;
	// both stay zero for memory-resident stores.
	raIssued int64
	raHits   int64
}

// record attributes a finished scan to stage of tr (nil tr: no-op).
// Nodes is exactly what the caller adds to NodesChecked, so the trace's
// per-stage counters partition the reported total. Disk activity gets
// its own stage with zero Nodes for the same reason.
func (st scanStats) record(tr *trace.Trace, stage string, start time.Time) {
	if tr == nil {
		return
	}
	tr.Add(stage, time.Since(start), trace.Counters{
		Nodes: st.visited, Links: st.visited,
		BlocksSkipped: st.blocksSkipped, BlocksScanned: st.blocksScanned,
		WordsCompared: st.words,
	})
	if st.raIssued+st.raHits > 0 {
		tr.Add(trace.StageDisk, 0, trace.Counters{
			ReadaheadIssued: st.raIssued, ReadaheadHits: st.raHits,
		})
	}
}

// admit reports whether block m can contain an occurrence end for a
// pattern of length patlen whose target members currently span
// [first, maxMember]. The three rejections are each conservative:
//
//   - maxLEL < patlen: no node in the block passes the lel test.
//   - maxLink < first: every link in the block lands before the first
//     occurrence end, and members are always >= first.
//   - minLink > maxMember: every link in the block lands beyond the
//     newest member. No node in the block can link to a pre-block
//     member, so (inductively, scanning in node order) none can become
//     a member within the block either.
//
// The batch pass reads the same test with patlen the shortest active
// length and first the earliest first occurrence.
func (m *blockMeta) admit(patlen, first, maxMember int32) bool {
	return m.maxLEL >= patlen && m.maxLink >= first && m.minLink <= maxMember
}

// blockIter walks the admitted blocks of the backbone range [j, hi] in
// order: word-parallel block prefilter (SWAR kernel only) → admit →
// readahead/cancellation checkpoint → candidate mask. It owns the work
// accounting, so every scan built on it counts alike. The kernel knob is
// read once, at construction: a scan is all-SWAR or all-scalar even when
// SetScanKernel flips concurrently.
type blockIter[S store] struct {
	s      S
	ctx    context.Context
	ra     ScanReadahead
	blocks []blockMeta
	pack   []uint64 // packed block-maxLEL lanes; nil under the scalar kernel
	first  int32    // admission floor: members are >= first
	patlen int32    // lel threshold; the batch pass raises it as matches finish
	j, hi  int32    // next unvisited node, inclusive range end
	last   int32    // last node of the block next returned

	nextCheck int64
	st        scanStats
	err       error // the context's error, once a checkpoint saw it
}

func newBlockIter[S store](ctx context.Context, s S, lo, hi, first, patlen int32) blockIter[S] {
	it := blockIter[S]{
		s: s, ctx: ctx, ra: s.readahead(), blocks: s.skipBlocks(),
		first: first, patlen: patlen, j: lo, hi: hi, nextCheck: cancelStride,
	}
	if !scalarKernel.Load() {
		it.pack = s.blockLELs()
	}
	if it.ra != nil {
		it.advanceReadahead()
	}
	return it
}

func (it *blockIter[S]) advanceReadahead() {
	iss, hits := it.ra.Advance(it.j)
	it.st.raIssued += iss
	it.st.raHits += hits
}

// next admits the next block given the newest member so far and returns
// its candidates: bit k of mask is node base+k, set iff the node passes
// the layout's lel >= patlen lane test — conservative (the compact
// layout saturates LELs, the scalar kernel passes every node, and a
// raised threshold leaves the current mask a superset), so the
// layout's nextMember, which walks the mask, re-checks the exact LEL.
// ok is false when the range is exhausted or the context ended
// (it.err).
func (it *blockIter[S]) next(maxMember int32) (base int32, mask uint64, ok bool) {
	if it.st.visited+blockSize*it.st.blocksSkipped >= it.nextCheck {
		it.nextCheck += cancelStride
		if it.ra != nil {
			it.advanceReadahead()
		}
		if it.err = it.ctx.Err(); it.err != nil {
			return 0, 0, false
		}
	}
	bHi := blockFor(it.hi)
	for it.j <= it.hi {
		b := blockFor(it.j)
		if it.pack != nil {
			// Jump over runs of blocks whose saturated maxLEL lane already
			// fails, 4 blocks per op; admit would reject each of them.
			nb, w := nextBlockLEL(it.pack, b, bHi, satLEL16(it.patlen))
			it.st.words += w
			if nb > b {
				it.st.blocksSkipped += int64(nb - b)
				if nb > bHi {
					break
				}
				b = nb
				it.j = int32(b)<<blockShift + 1
			}
		}
		base, it.last = it.j, blockLastNode(b)
		if it.last > it.hi {
			it.last = it.hi
		}
		it.j = it.last + 1
		if !it.blocks[b].admit(it.patlen, it.first, maxMember) {
			it.st.blocksSkipped++
			continue
		}
		it.st.blocksScanned++
		it.st.visited += int64(it.last - base + 1)
		if it.pack == nil {
			return base, ^uint64(0) >> uint(63-(it.last-base)), true
		}
		mask, w := it.s.lelMask(base, it.last, it.patlen)
		it.st.words += w
		return base, mask, true
	}
	return 0, 0, false
}

// stopAt ends the scan at candidate j of the current block, uncounting
// the block's nodes that were never reached.
func (it *blockIter[S]) stopAt(j int32) { it.st.visited -= int64(it.last - j) }

// occEachOn is the one single-pattern occurrence scan, under every
// query verb on every layout: starting from the first-occurrence end
// node it hands every further occurrence end to emit in increasing
// order, and stops when emit returns false — stopped is then that node,
// else 0. Membership is recorded for every occurrence, since later ones
// may link to it. A cancelled ctx aborts with the stats accumulated so
// far. emit is only called, never retained, so steady-state scans
// allocate nothing. Under SetBlockSkip(false) the scalar oracle answers
// instead, to the same contract.
func occEachOn[S store](ctx context.Context, s S, sc *scanScratch, first, patlen int32, emit func(j int32) bool) (st scanStats, stopped int32, err error) {
	if blockSkipOff.Load() {
		return scalarEachOn(ctx, s, first, patlen, emit)
	}
	it := newBlockIter(ctx, s, first+1, s.textLen(), first, patlen)
	sc.add(first)
	maxMember := first
	for {
		base, mask, ok := it.next(maxMember)
		if !ok {
			return it.st, 0, it.err
		}
		for mask != 0 {
			var j int32
			if j, mask = s.nextMember(base, mask, patlen, sc.bits); j == 0 {
				break
			}
			sc.add(j)
			maxMember = j
			if !emit(j) {
				it.stopAt(j)
				return it.st, j, nil
			}
		}
	}
}
