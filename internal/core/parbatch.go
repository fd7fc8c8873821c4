package core

import (
	"context"
	mbits "math/bits"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Partitioned form of the §4 batched occurrence scan (ScanMany /
// unlimited ScanManyLimitCtx). The single-pattern chain argument in
// parallel.go generalizes per match: node j is an end of match m iff
// lel(j) >= lens[m] and its link chain — every hop with lel >= lens[m]
// — terminates in a node already in m's target set. A worker therefore
// tracks, per in-partition node, both the locally resolved memberships
// (link chains reaching a seed first or a local member) and the pending
// chain state (ultimate root in an earlier partition plus the minimum
// lel along the local chain, which is the binding constraint for any
// match the root may belong to).
//
// Only unlimited batches take this path: per-match limits make block
// admission depend on the done-set evolution, which would entangle the
// partitions; limited batches stay on the sequential scan. The fold of
// ScanManyCtx onto this pass means the match-engine batch path — the
// heavy analytics consumer — is exactly the one that parallelizes.

// batchEntry is one classified candidate streamed to the batch stitch:
// m >= 0 is a locally resolved member of match m; m == -1 is a pending
// chain with ultimate root `root` and effective (minimum) chain lel.
type batchEntry struct {
	j    int32
	m    int32
	root int32
	lel  int32
}

var batchChunkPool = sync.Pool{New: func() any {
	return make([]batchEntry, 0, scanChunkLen)
}}

// batchPartScratch is the pooled per-worker chain state for the batch
// scan: the epoch-stamped pending table from parallel.go plus a
// parallel lel word (valid only when the state epoch matches).
type batchPartScratch struct {
	base    int32
	state   []uint64
	pendLEL []int32
	epoch   uint32
}

var batchPartScratchPool = sync.Pool{New: func() any { return new(batchPartScratch) }}

func getBatchPartScratch(part scanPart) *batchPartScratch {
	bp := batchPartScratchPool.Get().(*batchPartScratch)
	span := int(part.hi-part.lo) + 1
	if cap(bp.state) < span {
		bp.state = make([]uint64, span)
		bp.pendLEL = make([]int32, span)
		bp.epoch = 0
	}
	bp.state = bp.state[:cap(bp.state)]
	bp.pendLEL = bp.pendLEL[:cap(bp.pendLEL)]
	bp.epoch++
	if bp.epoch == 0 {
		clear(bp.state)
		bp.epoch = 1
	}
	bp.base = part.lo
	return bp
}

func putBatchPartScratch(bp *batchPartScratch) {
	if bp != nil {
		batchPartScratchPool.Put(bp)
	}
}

func (bp *batchPartScratch) setPend(x, root, lel int32) {
	i := x - bp.base
	bp.state[i] = uint64(bp.epoch)<<32 | uint64(uint32(root))
	bp.pendLEL[i] = lel
}

func (bp *batchPartScratch) pendOf(x int32) (root, lel int32, ok bool) {
	i := x - bp.base
	v := bp.state[i]
	if uint32(v>>32) != bp.epoch {
		return 0, 0, false
	}
	return int32(uint32(v)), bp.pendLEL[i], true
}

// parBatchPartScanOn scans one partition for the batch through the
// shared block iterator (admission inputs are the batch's scan
// constants, so the replayed Scanned counter is exact), streaming
// batchEntry chunks in backbone order.
func parBatchPartScanOn[S store](ctx context.Context, s S, bp *batchPartScratch, part scanPart, firsts, lens []int32, predone []bool, minFirst, maxFirst, minActiveLen int32, out chan<- []batchEntry, stop *atomic.Bool, stopCh <-chan struct{}) (scanStats, error) {
	// owners[node] lists matches whose target set locally contains node,
	// seeded with every active first — including firsts inside or after
	// this partition, which the j > firsts[m] guard neutralizes.
	owners := make(map[int32][]int32, len(firsts))
	for i := range firsts {
		if !predone[i] {
			owners[firsts[i]] = append(owners[firsts[i]], int32(i))
		}
	}
	// maxActive seeds at max(lo-1, maxFirst): at least the sequential
	// maxMember at the same backbone point, so admission is a superset.
	maxActive := part.lo - 1
	if maxFirst > maxActive {
		maxActive = maxFirst
	}
	chunk := batchChunkPool.Get().([]batchEntry)[:0]
	flush := func() bool {
		if len(chunk) == 0 {
			return true
		}
		select {
		case out <- chunk:
			chunk = batchChunkPool.Get().([]batchEntry)[:0]
			return true
		case <-stopCh:
			return false
		}
	}
	it := newBlockIter(ctx, s, part.lo, part.hi, minFirst, minActiveLen)
	it.stop = stop
	for {
		base, mask, ok := it.next(maxActive)
		if !ok {
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			j := base + int32(mbits.TrailingZeros64(mask))
			link, lel := s.linkOf(j)
			// Every classification below needs lel >= some active length.
			if lel < minActiveLen {
				continue
			}
			emitted := false
			for _, m := range owners[link] {
				if lel >= lens[m] && j > firsts[m] {
					owners[j] = append(owners[j], m)
					chunk = append(chunk, batchEntry{j: j, m: m})
					emitted = true
				}
			}
			// Pending chain tracking is independent of local membership: a
			// link target can be a local member of one match and, unseen by
			// this worker, a member of others — so a cross-partition link
			// always also emits a pending entry; the stitch deduplicates.
			if link < part.lo {
				if link > minFirst {
					bp.setPend(j, link, lel)
					chunk = append(chunk, batchEntry{j: j, m: -1, root: link, lel: lel})
					emitted = true
				}
			} else if root, plel, ok := bp.pendOf(link); ok {
				eff := lel
				if plel < eff {
					eff = plel
				}
				bp.setPend(j, root, eff)
				chunk = append(chunk, batchEntry{j: j, m: -1, root: root, lel: eff})
				emitted = true
			}
			if emitted {
				maxActive = j
				if len(chunk) >= scanChunkLen && !flush() {
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

// parScanManyOn runs the unlimited batch scan over parts partitions,
// appending each match's further occurrence ends to ends[i] (already
// seeded with the first occurrences) in increasing order. The stitch
// consumes partitions left to right, resolving pending roots against
// the global owner map exactly as the sequential induction would. On
// success the stats are the sequential pass's own numbers via replay.
func parScanManyOn[S store](ctx context.Context, s S, firsts, lens []int32, predone []bool, minFirst, maxFirst, minActiveLen int32, parts []scanPart, ends [][]int32) (st scanStats, err error) {
	n := s.textLen()
	states := make([]parPartState, len(parts))
	chans := make([]chan []batchEntry, len(parts))
	for k := range parts {
		chans[k] = make(chan []batchEntry, chunkBuf)
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
			bp := getBatchPartScratch(parts[k])
			pprof.Do(ctx, pprof.Labels("spine_scan", "batchscan", "spine_scan_part", strconv.Itoa(k)), func(ctx context.Context) {
				stw, errw := parBatchPartScanOn(ctx, s, bp, parts[k], firsts, lens, predone, minFirst, maxFirst, minActiveLen, chans[k], &stop, stopCh)
				states[k] = parPartState{st: stw, err: errw}
			})
			putBatchPartScratch(bp)
			close(chans[k])
		}(k)
	}

	ownersG := make(map[int32][]int32, len(firsts))
	for i := range firsts {
		if !predone[i] {
			ownersG[firsts[i]] = append(ownersG[firsts[i]], int32(i))
		}
	}
	// members collects every appended end in backbone order (consecutive
	// duplicates collapsed) — the maxMember evolution the replay needs.
	var members []int32
	var chains int64
	appendEnd := func(j int32, m int32) {
		// Dedup guard: a pending entry can re-derive a membership the
		// worker (or an earlier entry for the same node) already resolved;
		// per match, ends grow in strictly increasing node order, so a
		// duplicate can only be the latest element.
		if e := ends[m]; len(e) > 0 && e[len(e)-1] == j {
			return
		}
		ends[m] = append(ends[m], j)
		ownersG[j] = append(ownersG[j], m)
		if len(members) == 0 || members[len(members)-1] != j {
			members = append(members, j)
		}
	}
	for k := range parts {
		for chunk := range chans[k] {
			for _, e := range chunk {
				if e.m >= 0 {
					appendEnd(e.j, e.m)
					continue
				}
				chains++
				for _, m := range ownersG[e.root] {
					if e.lel >= lens[m] && e.j > firsts[m] {
						appendEnd(e.j, m)
					}
				}
			}
			batchChunkPool.Put(chunk[:0])
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
		for k := range states {
			st.visited += states[k].st.visited
			st.blocksSkipped += states[k].st.blocksSkipped
			st.blocksScanned += states[k].st.blocksScanned
		}
		return st, err
	}
	st.visited, st.blocksSkipped, st.blocksScanned = replayBatchScanOn(s, minFirst, maxFirst, minActiveLen, members, n)
	return st, nil
}

// replayBatchScanOn re-derives the sequential batch pass's work
// counters from the skip metadata and the stitched member sequence —
// valid because with no limits the admission inputs (minActiveLen,
// minFirst) are scan constants and maxMember evolves only with the
// merged member sequence.
func replayBatchScanOn[S store](s S, minFirst, maxFirst, minActiveLen int32, members []int32, n int32) (visited, skipped, scanned int64) {
	blocks := s.skipBlocks()
	maxMember := maxFirst
	mi := 0
	j := minFirst + 1
	for j <= n {
		for mi < len(members) && members[mi] < j {
			maxMember = members[mi]
			mi++
		}
		b := blockFor(j)
		last := blockLastNode(b)
		if last > n {
			last = n
		}
		bm := &blocks[b]
		if bm.maxLEL < minActiveLen || bm.maxLink < minFirst || bm.minLink > maxMember {
			skipped++
		} else {
			scanned++
			visited += int64(last - j + 1)
		}
		j = last + 1
	}
	return visited, skipped, scanned
}
