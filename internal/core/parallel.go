package core

import (
	"context"
	mbits "math/bits"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Intra-query parallel occurrence scanning.
//
// Every scan acceleration so far — block-skip admission, SWAR word
// kernels, mmap readahead — cut single-core cost; a cold selective
// query still walked one goroutine across the whole backbone while the
// other cores idled. This file splits the §4 valid-path scan range
// (first, n] into P contiguous partitions on block-skip block
// boundaries and scans them concurrently.
//
// The sequential invariant being preserved: node j is an occurrence
// end iff lel(j) >= |P| and link(j) is already a member of the target
// set, which (unrolling the induction) means j's link chain passes
// only through candidate nodes (each with lel >= |P|, links strictly
// decreasing) and terminates exactly at `first`. A worker scanning
// partition [lo, hi] classifies every candidate it visits without
// seeing the other partitions:
//
//   - member:    the chain resolves inside the partition down to a
//                node whose link is `first` — an occurrence for sure.
//   - nonmember: the link lands before `first`, or on an in-partition
//                node already known not to be on a live chain.
//   - pending:   the chain leaves the partition at some root
//                r ∈ (first, lo) — an occurrence iff r turns out to be
//                a member. The worker records the *ultimate* root
//                (chains through in-partition pendings collapse to
//                their root), so resolution is one membership probe,
//                not a chain walk.
//
// Workers stream (node, root) entries in backbone order through
// bounded channels to a single stitch pass that consumes partitions
// left to right, resolving roots against the membership built so far —
// the sequential induction replayed over precomputed classifications.
// Increasing position order, first-k limit truncation (with later
// partitions cancelled once the limit is satisfied) and context
// cancellation all fall out of the stitch running in backbone order,
// and the bounded channels cap peak memory at a few chunk buffers per
// worker no matter how candidate-dense the pattern is.
//
// Block admission inside a worker reuses blockMeta.admit with
// maxActive (the newest member-or-pending node, seeded at lo-1)
// standing in for the sequential maxMember. maxActive is always >= the
// sequential maxMember at the same point of the backbone, so every
// block the sequential scan admits is admitted here too — workers scan
// a (usually empty) superset of the sequential blocks, never a subset.
// The canonical — parallelism- and kernel-invariant — visited/blocks
// counters are recovered after the stitch by replaying the sequential
// admission decisions over the skip metadata with the true member
// sequence (replayScanOn): O(#blocks), a rounding error next to the
// scan itself.

// maxScanWorkers bounds intra-query fan-out regardless of the knob or
// GOMAXPROCS.
const maxScanWorkers = 32

// scanParallelism holds the SetScanParallelism knob: 0 selects
// automatic (GOMAXPROCS-adaptive) parallelism, 1 pins the sequential
// oracle, k > 1 requests exactly k workers.
var scanParallelism atomic.Int32

// scanParMinSpan is the adaptive-admission threshold: scans covering
// fewer backbone nodes than this stay sequential — goroutine fan-out
// and stitch overhead only pay off on long scans.
var scanParMinSpan atomic.Int64

const defaultScanParMinSpan = 1 << 16

// SetScanParallelism selects the intra-query scan parallelism,
// returning the previous setting. 0 (the default) is adaptive: engage
// one worker per core, but only when GOMAXPROCS > 1 and the scan span
// clears the admission threshold. 1 pins the sequential scan — the
// differential oracle every parallel result is testable against.
// k > 1 requests exactly k workers (still subject to the span
// threshold and to there being at least k blocks to split; k workers
// engage even on a single CPU, which is what the equivalence tests
// exercise). Safe to flip concurrently with queries; each scan reads
// the knob once.
func SetScanParallelism(workers int) (previous int) {
	if workers < 0 {
		workers = 0
	}
	if workers > maxScanWorkers {
		workers = maxScanWorkers
	}
	return int(scanParallelism.Swap(int32(workers)))
}

// ScanParallelism reports the current SetScanParallelism setting
// (0 = adaptive).
func ScanParallelism() int { return int(scanParallelism.Load()) }

// SetScanParallelThreshold sets the minimum scan span (backbone nodes)
// for parallel admission, returning the previous value. nodes <= 0
// restores the default. Tests and benchmarks lower it to exercise the
// partitioned path on small corpora.
func SetScanParallelThreshold(nodes int) (previous int) {
	if nodes <= 0 {
		nodes = defaultScanParMinSpan
	}
	prev := scanParMinSpan.Swap(int64(nodes))
	if prev == 0 {
		prev = defaultScanParMinSpan
	}
	return int(prev)
}

// scanWorkersFor resolves the worker count for a scan over span
// backbone nodes: the knob (or GOMAXPROCS when adaptive), gated by the
// span threshold. Adaptive mode requires real cores; an explicit k > 1
// engages regardless.
func scanWorkersFor(span int32) int {
	minSpan := scanParMinSpan.Load()
	if minSpan == 0 {
		minSpan = defaultScanParMinSpan
	}
	if int64(span) < minSpan {
		return 1
	}
	p := int(scanParallelism.Load())
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
		if p > maxScanWorkers {
			p = maxScanWorkers
		}
	}
	if p < 1 {
		p = 1
	}
	return p
}

// scanPart is one contiguous backbone partition [lo, hi], both
// inclusive. Every boundary except the scan start and the backbone end
// lies on a block-skip block boundary, so workers never share a
// blockMeta decision.
type scanPart struct {
	lo, hi int32
}

// planScanParts splits the scan range (first, n] into at most workers
// block-aligned partitions. It returns nil when the range is empty or
// a single partition would result — callers fall through to the
// sequential scan.
func planScanParts(first, n int32, workers int) []scanPart {
	if workers <= 1 || n-first < 2 {
		return nil
	}
	bFirst := blockFor(first + 1)
	bLast := blockFor(n)
	nb := bLast - bFirst + 1
	if workers > nb {
		workers = nb
	}
	if workers <= 1 {
		return nil
	}
	parts := make([]scanPart, 0, workers)
	per, rem := nb/workers, nb%workers
	b := bFirst
	for k := 0; k < workers; k++ {
		cnt := per
		if k < rem {
			cnt++
		}
		lastB := b + cnt - 1
		lo := int32(b)<<blockShift + 1
		if k == 0 {
			lo = first + 1
		}
		hi := blockLastNode(lastB)
		if hi > n {
			hi = n
		}
		parts = append(parts, scanPart{lo: lo, hi: hi})
		b = lastB + 1
	}
	return parts
}

// rootLocal marks a chain entry whose membership was resolved inside
// its own partition. Real cross-partition roots are always > first
// >= 1, so 0 is free to act as the sentinel.
const rootLocal = int32(0)

// chainEntry is one candidate a worker admitted: either a locally
// resolved member (root == rootLocal) or a pending chain whose
// ultimate root lies in an earlier partition.
type chainEntry struct {
	j    int32
	root int32
}

// scanChunkLen is the streaming granularity between a worker and the
// stitch; chunkBuf is the per-worker channel depth. Together they cap
// how far a worker may run ahead of the stitch — and thus the peak
// entry memory — at chunkBuf+2 chunks per worker.
const (
	scanChunkLen = 4096
	chunkBuf     = 4
)

var chainChunkPool = sync.Pool{New: func() any {
	return make([]chainEntry, 0, scanChunkLen)
}}

// partScratch is the pooled per-worker classification state: one
// epoch-stamped word per partition node packing the validity epoch
// (high 32 bits) with the chain root (low 32 bits, rootLocal for
// members). Reuse across queries never clears it — bumping the epoch
// invalidates every stale entry in O(1).
type partScratch struct {
	base  int32
	state []uint64
	epoch uint32
}

var partScratchPool = sync.Pool{New: func() any { return new(partScratch) }}

func getPartScratch(part scanPart) *partScratch {
	ps := partScratchPool.Get().(*partScratch)
	span := int(part.hi-part.lo) + 1
	if cap(ps.state) < span {
		ps.state = make([]uint64, span)
		ps.epoch = 0
	}
	ps.state = ps.state[:cap(ps.state)]
	ps.epoch++
	if ps.epoch == 0 {
		clear(ps.state)
		ps.epoch = 1
	}
	ps.base = part.lo
	return ps
}

func putPartScratch(ps *partScratch) {
	if ps != nil {
		partScratchPool.Put(ps)
	}
}

// set records node x as active with the given chain root (rootLocal
// for a resolved member).
func (ps *partScratch) set(x, root int32) {
	ps.state[x-ps.base] = uint64(ps.epoch)<<32 | uint64(uint32(root))
}

// rootOf returns x's chain root and whether x is active this query.
func (ps *partScratch) rootOf(x int32) (int32, bool) {
	v := ps.state[x-ps.base]
	if uint32(v>>32) != ps.epoch {
		return 0, false
	}
	return int32(uint32(v)), true
}

// parPartState is the per-worker outcome read by the stitch after the
// worker's channel closes (entries travel through the channel; stats
// and errors ride here).
type parPartState struct {
	st  scanStats
	err error
}

// parPartScanOn scans one partition through the shared block iterator,
// classifying candidates and streaming chainEntry chunks to out in
// backbone order. stop is the stitch's cancellation broadcast: once
// the limit is satisfied by stitched prefixes (or the query dies),
// later partitions abandon their remainder — their queued entries are
// never read. Partial stats still count; they are machine work
// actually done.
func parPartScanOn[S store](ctx context.Context, s S, ps *partScratch, part scanPart, first, patlen int32, out chan<- []chainEntry, stop *atomic.Bool, stopCh <-chan struct{}) (scanStats, error) {
	// Per-worker readahead frontier: each partition streams its own
	// window of the on-disk LEL/link rows; the pager's range cache
	// deduplicates overlap between neighbors.
	it := newBlockIter(ctx, s, part.lo, part.hi, first, patlen)
	it.stop = stop
	// Seeding maxActive at lo-1 makes the admission test conservative:
	// any node before the partition may turn out to be a member, so a
	// block is only rejected when even that assumption cannot admit it.
	// Every block the sequential scan admits is admitted here too.
	maxActive := part.lo - 1
	chunk := chainChunkPool.Get().([]chainEntry)[:0]
	flush := func() bool {
		if len(chunk) == 0 {
			return true
		}
		select {
		case out <- chunk:
			chunk = chainChunkPool.Get().([]chainEntry)[:0]
			return true
		case <-stopCh:
			return false
		}
	}
	for {
		base, mask, ok := it.next(maxActive)
		if !ok {
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			j := base + int32(mbits.TrailingZeros64(mask))
			link, lel := s.linkOf(j)
			if lel < patlen {
				continue
			}
			root, active := int32(-1), false
			switch {
			case link == first:
				// Chain roots directly in the seed member.
				root, active = rootLocal, true
			case link >= part.lo:
				// In-partition link: the target was visited earlier in
				// this very partition (or provably rejected), so its
				// classification is already known.
				root, active = ps.rootOf(link)
			case link > first:
				// Chain leaves the partition: j is an occurrence iff
				// the root is stitched into the member set.
				root, active = link, true
			}
			// Remaining case, link < first: provably a nonmember —
			// members are always >= first.
			if active {
				ps.set(j, root)
				maxActive = j
				chunk = append(chunk, chainEntry{j: j, root: root})
				if len(chunk) == scanChunkLen && !flush() {
					return it.st, nil
				}
			}
		}
	}
	if it.err == nil {
		flush()
	}
	return it.st, it.err
}

// parOccScanOn is the partitioned form of occScanOn: identical
// contract (occurrence ends beyond first appended to sc.ends in
// increasing order, maxExtra capping, truncated/err reporting), scanned
// by len(parts) workers and resolved by the ordered stitch. On every
// completed scan — truncated ones included — the visited/blocks stats
// are the sequential scan's own numbers, recovered by replay; only a
// context cancellation falls back to summing the partial per-worker
// work.
func parOccScanOn[S store](ctx context.Context, s S, sc *scanScratch, first, patlen int32, maxExtra int, parts []scanPart, kind string) (st scanStats, truncated bool, err error) {
	n := s.textLen()
	states := make([]parPartState, len(parts))
	chans := make([]chan []chainEntry, len(parts))
	for k := range parts {
		chans[k] = make(chan []chainEntry, chunkBuf)
	}
	var stop atomic.Bool
	stopCh := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { stop.Store(true); close(stopCh) }) }
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ps := getPartScratch(parts[k])
			pprof.Do(ctx, pprof.Labels("spine_scan", kind, "spine_scan_part", strconv.Itoa(k)), func(ctx context.Context) {
				stw, errw := parPartScanOn(ctx, s, ps, parts[k], first, patlen, chans[k], &stop, stopCh)
				states[k] = parPartState{st: stw, err: errw}
			})
			putPartScratch(ps)
			close(chans[k])
		}(k)
	}

	// Ordered stitch: partitions are consumed left to right, so when a
	// pending chain's root is probed, every node before it has already
	// been classified — the sequential induction replayed over
	// precomputed entries. Members land in the same scratch table the
	// sequential scan would use.
	sc.add(first)
	var truncAt int32
	var chains int64
stitch:
	for k := range parts {
		for chunk := range chans[k] {
			for _, e := range chunk {
				if e.root != rootLocal {
					chains++
					if !sc.member(e.root) {
						continue
					}
				}
				sc.add(e.j)
				sc.ends = append(sc.ends, e.j)
				if maxExtra >= 0 && len(sc.ends) >= maxExtra {
					truncated = e.j < n
					truncAt = e.j
					chainChunkPool.Put(chunk[:0])
					break stitch
				}
			}
			chainChunkPool.Put(chunk[:0])
		}
		if states[k].err != nil {
			err = states[k].err
			break
		}
	}
	halt()
	wg.Wait()

	st.workersUsed = int64(len(parts))
	st.chainsStitched = chains
	for k := range states {
		st.words += states[k].st.words
		st.raIssued += states[k].st.raIssued
		st.raHits += states[k].st.raHits
	}
	if err != nil {
		// Cancelled mid-scan: like the sequential path, report the work
		// actually done (here: summed across workers).
		for k := range states {
			st.visited += states[k].st.visited
			st.blocksSkipped += states[k].st.blocksSkipped
			st.blocksScanned += states[k].st.blocksScanned
		}
		return st, false, err
	}
	stopAt := n
	if truncated {
		stopAt = truncAt
	}
	st.visited, st.blocksSkipped, st.blocksScanned = replayScanOn(s, first, patlen, sc.ends, stopAt)
	return st, truncated, nil
}

// replayScanOn re-derives the sequential scan's work counters from the
// skip metadata and the true member sequence: a block's admission
// depends only on (patlen, first, largest member before the block),
// all of which the stitch has settled. The result is independent of
// both the kernel and the worker layout — the canonical NodesChecked
// contribution, equal to what SetScanParallelism(1) would have
// reported.
func replayScanOn[S store](s S, first, patlen int32, members []int32, stopAt int32) (visited, skipped, scanned int64) {
	blocks := s.skipBlocks()
	n := s.textLen()
	maxMember := first
	mi := 0
	j := first + 1
	for j <= stopAt {
		for mi < len(members) && members[mi] < j {
			maxMember = members[mi]
			mi++
		}
		b := blockFor(j)
		last := blockLastNode(b)
		if last > n {
			last = n
		}
		if !blocks[b].admit(patlen, first, maxMember) {
			skipped++
			j = last + 1
			continue
		}
		scanned++
		if stopAt < last {
			// The sequential scan stops at the limit-hitting member and
			// uncounts the rest of the block.
			visited += int64(stopAt - j + 1)
		} else {
			visited += int64(last - j + 1)
		}
		j = last + 1
	}
	return visited, skipped, scanned
}
