package core

import (
	"context"
	"math"
	"time"
)

// store is the storage abstraction the search engine runs over. Both the
// reference layout (Index) and the §5 compact layout (CompactIndex)
// implement it; the engine is instantiated per concrete type so the hot
// loops devirtualize.
//
// Implementations operate on their native character representation: raw
// letters for Index, dense alphabet codes for CompactIndex. Callers
// translate patterns before invoking the engine.
type store interface {
	// textLen returns the indexed length n.
	textLen() int32
	// charAt returns the vertebra character label of node v (v < n).
	charAt(v int32) byte
	// findRib returns the rib labelled c at node t, if any.
	findRib(t int32, c byte) (Rib, bool)
	// findExtrib returns the extrib at node t, if any.
	findExtrib(t int32) (Extrib, bool)
	// linkOf returns (link, LEL) of node i in 1..n.
	linkOf(i int32) (int32, int32)
	// skipBlocks returns the block-max skip index over the backbone:
	// entry b summarizes nodes b*blockSize+1 .. (b+1)*blockSize. Both
	// layouts keep it current with the backbone (the Index folds it
	// online per append; the compact layout builds it at freeze time).
	skipBlocks() []blockMeta
	// blockLELs returns the packed saturated-uint16 maxLEL lanes of the
	// skip blocks (lane b&3 of word b>>2 = block b), kept current with
	// skipBlocks; the SWAR admission prefilter reads it.
	blockLELs() []uint64
	// vertBits is the packed width of the vertebra character labels in
	// the store's native representation: 8 for raw bytes, the alphabet
	// width for the compact layout.
	vertBits() uint
	// vertWord returns a 64-bit window of packed vertebra labels
	// starting at node v in seq's canonical lane order (char v+k at bits
	// [k*vertBits(), (k+1)*vertBits())), zero-filled past the text end.
	vertWord(v int32) uint64
	// lelMask answers the lel >= patlen test for the whole node run
	// [j, last] (at most blockSize nodes) at once: bit k of mask is set
	// iff node j+k passes a word-parallel compare over the layout's
	// packed LEL lanes; words is the lane words compared. The test is
	// conservative — false positives are possible (the compact layout
	// saturates LELs at the uint16 sentinel) but false negatives are
	// not; nextMember re-checks the exact LEL.
	lelMask(j, last, patlen int32) (mask uint64, words int64)
	// nextMember is the per-candidate body of every accelerated scan:
	// it walks the candidates of mask (bit k = node base+k) in
	// increasing order and returns the first node j whose exact LEL is
	// >= patlen and whose link target has its bit set in bits (bit x of
	// word x>>6 = node x), plus the mask of the candidates after j;
	// j == 0 when none qualifies. It returns at each hit, not once per
	// block, because the caller must admit j to the set before the rest
	// of the block is probed: a later node of the block may link to j.
	nextMember(base int32, mask uint64, patlen int32, bits []uint64) (j int32, rest uint64)
	// readahead returns the scan readahead sink for disk-backed
	// layouts, or nil when the store is memory-resident. The scan
	// loops consult it once per entry; a nil sink costs nothing.
	readahead() ScanReadahead
}

// stepOn advances a valid path of length pathlen at node v by character c.
// See Index.step for semantics.
func stepOn[S store](s S, v, pathlen int32, c byte, acct *descentAcct) (next int32, ok bool) {
	if v < s.textLen() && s.charAt(v) == c {
		return v + 1, true
	}
	return edgeStepOn(s, v, pathlen, c, acct)
}

// descentAcct is the optional accounting sink of a descent: cross-edge
// hop counts, the time spent off the backbone, and the SWAR kernel's
// word compares. A nil sink is the untraced path — no clock is read.
type descentAcct struct {
	ribHops, extribHops, words int64
	ribsDur, extribsDur        time.Duration
}

// edgeStepOn is the cross-edge arm of a descent step: the vertebra for c
// is absent (or v is the text end), so the step succeeds only through a
// rib — and, when the rib's threshold is too small, its extrib chain.
// Both kernels share this arm; only run matching differs. It is the one
// place a descent touches acct, so the vertebra runs stay sink-free.
func edgeStepOn[S store](s S, v, pathlen int32, c byte, acct *descentAcct) (next int32, ok bool) {
	var t0 time.Time
	if acct != nil {
		t0 = time.Now()
	}
	r, ok := s.findRib(v, c)
	if acct != nil {
		acct.ribsDur += time.Since(t0)
		acct.ribHops++
	}
	if !ok {
		return 0, false
	}
	if pathlen <= r.PT {
		return r.Dest, true
	}
	if acct != nil {
		t0 = time.Now()
	}
	next, hops, ok := extribStepOn(s, v, pathlen, r)
	if acct != nil {
		acct.extribsDur += time.Since(t0)
		acct.extribHops += hops
	}
	return next, ok
}

// extribStepOn walks rib r's extrib chain from node v to the first
// member of r's family whose threshold covers pathlen; hops counts the
// extribs examined.
func extribStepOn[S store](s S, v, pathlen int32, r Rib) (next int32, hops int64, ok bool) {
	node := r.Dest
	for {
		x, ok := s.findExtrib(node)
		if !ok {
			return 0, hops, false
		}
		hops++
		if x.ParentSrc == v && x.PRT == r.PT && x.PT >= pathlen {
			return x.Dest, hops, true
		}
		node = x.Dest
	}
}

// endNodeOn locates the unique valid path spelling p, through the
// active kernel: word-parallel vertebra runs when the SWAR kernel is
// selected and the store's packed width tiles a word, the scalar
// character loop otherwise. acct, when non-nil, receives the descent's
// accounting; the hop counts are kernel-invariant (edge steps fire at
// exactly the characters where the scalar walk leaves the backbone).
func endNodeOn[S store](s S, p []byte, acct *descentAcct) (end int32, ok bool) {
	if !scalarKernel.Load() {
		if end, ok, handled := endNodeSWAROn(s, p, acct); handled {
			return end, ok
		}
	}
	return endNodeScalarOn(s, p, acct)
}

// endNodeScalarOn is the character-at-a-time descent — the paper's §3
// walk, retained verbatim as the SWAR kernel's differential oracle.
func endNodeScalarOn[S store](s S, p []byte, acct *descentAcct) (end int32, ok bool) {
	v := int32(0)
	for i, c := range p {
		v, ok = stepOn(s, v, int32(i), c, acct)
		if !ok {
			return 0, false
		}
	}
	return v, true
}

// endNodeSWAROn is the word-parallel descent: runs of vertebra
// extensions — the hot case of genomic descents — are matched a packed
// word at a time (32 DNA chars or 8 raw bytes per XOR), falling into
// edgeStepOn only at the run-breaking character. The pattern is packed
// once into pooled scratch. handled is false when the store's packed
// width cannot tile a word (e.g. 5-bit protein codes); the caller then
// takes the scalar path.
func endNodeSWAROn[S store](s S, p []byte, acct *descentAcct) (end int32, ok, handled bool) {
	bits := s.vertBits()
	if !swarCapable(bits) {
		return 0, false, false
	}
	sp := getSwarPat(p, bits)
	cpw := int32(64 / bits)
	v, i := int32(0), int32(0)
	n, m := s.textLen(), int32(len(p))
	words := int64(0)
	for i < m {
		if v < n {
			run := cpw
			if rem := m - i; rem < run {
				run = rem
			}
			if rem := n - v; rem < run {
				run = rem
			}
			k := matchLanes(s.vertWord(v), sp.wordAt(i), bits)
			words++
			if k > run {
				k = run
			}
			v += k
			i += k
			if k == run {
				// Full window matched: pattern done, text end reached, or
				// another whole word to go.
				continue
			}
		}
		// Mismatch (or text exhausted): only a cross edge can extend.
		if v, ok = edgeStepOn(s, v, i, p[i], acct); !ok {
			break
		}
		i++
	}
	putSwarPat(sp)
	if acct != nil {
		acct.words += words
	}
	return v, i == m, true
}

// scalarEachOn is the §4 target-node-buffer scan exactly as the paper
// describes it: every backbone node after the first occurrence is
// visited and candidate links are probed against the sorted buffer "in
// binary fashion". It is the in-tree oracle the block-skip scan is
// differentially tested against — occEachOn routes here under
// SetBlockSkip(false) — and honours occEachOn's contract: emit, stopped
// and err mean the same, ctx is polled every cancelStride nodes, and
// visited counts the nodes examined.
func scalarEachOn[S store](ctx context.Context, s S, first, patlen int32, emit func(j int32) bool) (st scanStats, stopped int32, err error) {
	buf := []int32{first}
	n := s.textLen()
	for j := first + 1; j <= n; j++ {
		if (j-first)%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				// The checkpoint fires before node j is examined, so only
				// j-first-1 nodes were visited.
				return scanStats{visited: int64(j - first - 1)}, 0, err
			}
		}
		link, lel := s.linkOf(j)
		if lel >= patlen && containsSorted(buf, link) {
			buf = append(buf, j) // j > all current entries: stays sorted
			if !emit(j) {
				return scanStats{visited: int64(j - first)}, j, nil
			}
		}
	}
	return scanStats{visited: int64(n - first)}, 0, nil
}

// scanOccurrencesOn resolves every occurrence end of a located match,
// the first included.
func scanOccurrencesOn[S store](s S, first, patlen int32) []int32 {
	sc := getScratch(s.textLen())
	occEachOn(context.Background(), s, sc, first, patlen, func(j int32) bool {
		sc.ends = append(sc.ends, j)
		return true
	})
	out := make([]int32, 0, len(sc.ends)+1)
	out = append(append(out, first), sc.ends...)
	putScratch(sc)
	return out
}

// findAllOn is FindAll under every name (FindAll, FindAllAppend,
// FindAllCtx): descend, stage the further occurrence ends in pooled
// scratch, then append the start offsets to dst — one exact-size
// allocation when dst is nil, none when dst has room. limit <= 0 means
// unlimited; truncated reports a stop at the limit with backbone left.
// nodes is the §4.1 work metric: len(p) for the descent plus the
// backbone nodes scanned, where scanned means actually visited —
// skipped blocks contribute none. A cancelled scan returns dst
// unextended. The plain verbs pass context.Background().
func findAllOn[S store](ctx context.Context, s S, p []byte, limit int, dst []int) (out []int, truncated bool, nodes int64, err error) {
	if err := ctx.Err(); err != nil {
		return dst, false, 0, err
	}
	if len(p) == 0 {
		total := int(s.textLen()) + 1
		if truncated = limit > 0 && total > limit; truncated {
			total = limit
		}
		if dst == nil {
			dst = make([]int, 0, total)
		}
		for i := 0; i < total; i++ {
			dst = append(dst, i)
		}
		return dst, truncated, 0, nil
	}
	first, ok := descendOnCtx(ctx, s, p)
	nodes = int64(len(p))
	if !ok {
		return dst, false, nodes, nil
	}
	if limit == 1 {
		return append(dst, int(first)-len(p)), true, nodes, nil
	}
	sc := getScratch(s.textLen())
	maxExtra := limit - 1 // the first occurrence is not staged; never reached when limit <= 0
	st, stopped, err := occTracedOn(ctx, s, sc, first, int32(len(p)), func(j int32) bool {
		sc.ends = append(sc.ends, j)
		return len(sc.ends) != maxExtra
	})
	if err == nil {
		if dst == nil {
			dst = make([]int, 0, len(sc.ends)+1)
		}
		dst = append(dst, int(first)-len(p))
		for _, e := range sc.ends {
			dst = append(dst, int(e)-len(p))
		}
	}
	putScratch(sc)
	return dst, stopped != 0 && stopped < s.textLen(), nodes + st.visited, err
}

// countOn is Count under every name (Count, CountCtx, CountPrefixCtx):
// it streams the occurrence count of p, keeping only the membership
// set. Occurrences starting at or past maxStart still join the set
// (later occurrences may link to them) but are not counted; maxStart < 0
// counts everything. nodes is findAllOn's work metric: len(p) for the
// descent plus the backbone nodes visited, so a count and an unlimited
// findall of one pattern report the same work.
func countOn[S store](ctx context.Context, s S, p []byte, maxStart int) (count int, nodes int64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if len(p) == 0 {
		total := int(s.textLen()) + 1
		if maxStart >= 0 && total > maxStart {
			total = maxStart
		}
		return total, 0, nil
	}
	first, ok := descendOnCtx(ctx, s, p)
	nodes = int64(len(p))
	if !ok {
		return 0, nodes, nil
	}
	// The start-offset bound in end-node space:
	// start = end - len(p) < maxStart  <=>  end < maxStart + len(p).
	endBound := math.MaxInt
	if maxStart >= 0 {
		endBound = maxStart + len(p)
	}
	if int(first) < endBound {
		count++
	}
	sc := getScratch(s.textLen())
	st, _, err := occTracedOn(ctx, s, sc, first, int32(len(p)), func(j int32) bool {
		if int(j) < endBound {
			count++
		}
		return true
	})
	putScratch(sc)
	nodes += st.visited
	if err != nil {
		return 0, nodes, err
	}
	return count, nodes, nil
}

// forEachOccurrenceOn streams every occurrence start offset of p to fn
// in increasing order, stopping early when fn returns false. fn is
// only called, never retained, so the steady state allocates nothing.
func forEachOccurrenceOn[S store](s S, p []byte, fn func(start int) bool) {
	if len(p) == 0 {
		n := int(s.textLen())
		for i := 0; i <= n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	first, ok := endNodeOn(s, p, nil)
	if !ok || !fn(int(first)-len(p)) {
		return
	}
	sc := getScratch(s.textLen())
	occEachOn(context.Background(), s, sc, first, int32(len(p)), func(j int32) bool { return fn(int(j) - len(p)) })
	putScratch(sc)
}

// cursorState is the generic matching-statistics cursor; Cursor and
// CompactCursor instantiate it. See Cursor for field semantics.
type cursorState[S store] struct {
	st S
	// Node is the first-occurrence end node of the current match.
	Node int32
	// Len is the current matched length; the match is text[Node-Len:Node].
	Len int32
	// Checked counts nodes examined (chain hops, edge probes, extrib hops).
	Checked int64
}

// Reset returns the cursor to the root with an empty match, preserving the
// Checked counter.
func (c *cursorState[S]) Reset() { c.Node, c.Len = 0, 0 }

// Advance consumes one character (in the store's native representation).
// See Cursor.Advance.
func (c *cursorState[S]) Advance(ch byte) {
	for {
		c.Checked++
		if next, matched, ok := c.bestExtension(ch); ok {
			c.Node, c.Len = next, matched+1
			return
		}
		if c.Node == 0 && c.Len == 0 {
			return
		}
		c.Node, c.Len = c.st.linkOf(c.Node)
	}
}

// bestExtension finds the longest length l <= c.Len such that the length-l
// suffix of the current match extends by ch at this node. All candidate
// lengths here exceed lel(Node), so a partial extension through the rib
// family member with maximal PT < Len still beats anything further up the
// chain.
func (c *cursorState[S]) bestExtension(ch byte) (next, matched int32, ok bool) {
	v := c.Node
	if v < c.st.textLen() && c.st.charAt(v) == ch {
		return v + 1, c.Len, true
	}
	r, found := c.st.findRib(v, ch)
	if !found {
		return 0, 0, false
	}
	if c.Len <= r.PT {
		return r.Dest, c.Len, true
	}
	bestDest, bestPT := r.Dest, r.PT
	node := r.Dest
	for {
		x, found := c.st.findExtrib(node)
		if !found {
			break
		}
		c.Checked++
		if x.ParentSrc == v && x.PRT == r.PT {
			if x.PT >= c.Len {
				return x.Dest, c.Len, true
			}
			bestDest, bestPT = x.Dest, x.PT
		}
		node = x.Dest
	}
	return bestDest, bestPT, true
}

// MatchEnds returns every end position of the current match, increasing.
func (c *cursorState[S]) MatchEnds() []int32 {
	if c.Len == 0 {
		return nil
	}
	return scanOccurrencesOn(c.st, c.Node, c.Len)
}
