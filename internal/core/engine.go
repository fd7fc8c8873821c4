package core

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
	// not; callers re-check the exact LEL via linkOf.
	lelMask(j, last, patlen int32) (mask uint64, words int64)
	// readahead returns the scan readahead sink for disk-backed
	// layouts, or nil when the store is memory-resident. The scan
	// loops consult it once per entry; a nil sink costs nothing.
	readahead() ScanReadahead
}

// stepOn advances a valid path of length pathlen at node v by character c.
// See Index.step for semantics.
func stepOn[S store](s S, v, pathlen int32, c byte) (next int32, ok bool) {
	if v < s.textLen() && s.charAt(v) == c {
		return v + 1, true
	}
	return edgeStepOn(s, v, pathlen, c)
}

// edgeStepOn is the cross-edge arm of stepOn: the vertebra for c is
// absent (or v is the text end), so the step succeeds only through a
// rib — and, when the rib's threshold is too small, its extrib chain.
// The SWAR descent shares this arm; only run matching differs.
func edgeStepOn[S store](s S, v, pathlen int32, c byte) (next int32, ok bool) {
	r, ok := s.findRib(v, c)
	if !ok {
		return 0, false
	}
	if pathlen <= r.PT {
		return r.Dest, true
	}
	node := r.Dest
	for {
		x, ok := s.findExtrib(node)
		if !ok {
			return 0, false
		}
		if x.ParentSrc == v && x.PRT == r.PT && x.PT >= pathlen {
			return x.Dest, true
		}
		node = x.Dest
	}
}

// endNodeOn locates the unique valid path spelling p, through the
// active kernel: word-parallel vertebra runs when the SWAR kernel is
// selected and the store's packed width tiles a word, the scalar
// character loop otherwise.
func endNodeOn[S store](s S, p []byte) (end int32, ok bool) {
	if !scalarKernel.Load() {
		if end, ok, handled := endNodeSWAROn(s, p, nil); handled {
			return end, ok
		}
	}
	return endNodeScalarOn(s, p)
}

// endNodeScalarOn is the character-at-a-time descent — the paper's §3
// walk, retained verbatim as the SWAR kernel's differential oracle.
func endNodeScalarOn[S store](s S, p []byte) (end int32, ok bool) {
	v := int32(0)
	for i, c := range p {
		v, ok = stepOn(s, v, int32(i), c)
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
// takes the scalar path. When words is non-nil it accumulates the
// word comparisons performed (the traced descent's WordsCompared).
func endNodeSWAROn[S store](s S, p []byte, words *int64) (end int32, ok, handled bool) {
	bits := s.vertBits()
	if !swarCapable(bits) {
		return 0, false, false
	}
	sp := getSwarPat(p, bits)
	cpw := int32(64 / bits)
	v, i := int32(0), int32(0)
	n, m := s.textLen(), int32(len(p))
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
			if words != nil {
				*words++
			}
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
		next, stepped := edgeStepOn(s, v, i, p[i])
		if !stepped {
			putSwarPat(sp)
			return 0, false, true
		}
		v = next
		i++
	}
	putSwarPat(sp)
	return v, true, true
}

// scanOccurrencesScalarOn performs the §4 target-node-buffer scan
// exactly as the paper describes it: every backbone node after the
// first occurrence is visited and candidate links are probed against
// the sorted buffer "in binary fashion". This is the in-tree oracle the
// block-skip scan is differentially tested against (see SetBlockSkip).
func scanOccurrencesScalarOn[S store](s S, first, patlen int32) []int32 {
	buf := []int32{first}
	n := s.textLen()
	for j := first + 1; j <= n; j++ {
		link, lel := s.linkOf(j)
		if lel >= patlen && containsSorted(buf, link) {
			buf = append(buf, j) // j > all current entries: stays sorted
		}
	}
	return buf
}

// scanOccurrencesOn resolves every occurrence end of a match via the
// block-skip scan (or the scalar oracle when disabled).
func scanOccurrencesOn[S store](s S, first, patlen int32) []int32 {
	if blockSkipOff.Load() {
		return scanOccurrencesScalarOn(s, first, patlen)
	}
	sc := getScratch(s.textLen())
	occScanOn(nil, s, sc, first, patlen, -1)
	out := make([]int32, 0, len(sc.ends)+1)
	out = append(out, first)
	out = append(out, sc.ends...)
	putScratch(sc)
	return out
}

// findAllOn returns all occurrence start offsets of p.
func findAllOn[S store](s S, p []byte) []int {
	return findAllAppendOn(s, p, nil)
}

// findAllAppendOn appends all occurrence start offsets of p to dst and
// returns the extended slice. With a pre-sized dst the steady state
// performs no allocation; with dst == nil exactly one exact-size result
// slice is allocated when p occurs.
func findAllAppendOn[S store](s S, p []byte, dst []int) []int {
	if len(p) == 0 {
		n := int(s.textLen())
		if dst == nil {
			dst = make([]int, 0, n+1)
		}
		for i := 0; i <= n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	first, ok := endNodeOn(s, p)
	if !ok {
		return dst
	}
	if blockSkipOff.Load() {
		ends := scanOccurrencesScalarOn(s, first, int32(len(p)))
		if dst == nil {
			dst = make([]int, 0, len(ends))
		}
		for _, e := range ends {
			dst = append(dst, int(e)-len(p))
		}
		return dst
	}
	sc := getScratch(s.textLen())
	occScanOn(nil, s, sc, first, int32(len(p)), -1)
	if dst == nil {
		dst = make([]int, 0, len(sc.ends)+1)
	}
	dst = append(dst, int(first)-len(p))
	for _, e := range sc.ends {
		dst = append(dst, int(e)-len(p))
	}
	putScratch(sc)
	return dst
}

// countOn counts the occurrences of p without materializing them.
func countOn[S store](s S, p []byte) int {
	if len(p) == 0 {
		return int(s.textLen()) + 1
	}
	first, ok := endNodeOn(s, p)
	if !ok {
		return 0
	}
	if blockSkipOff.Load() {
		return len(scanOccurrencesScalarOn(s, first, int32(len(p))))
	}
	sc := getScratch(s.textLen())
	extra, _, _ := occCountOn(nil, s, sc, first, int32(len(p)), 0)
	putScratch(sc)
	return extra + 1
}

// forEachOccurrenceOn streams every occurrence start offset of p to fn
// in increasing order, stopping early when fn returns false. fn is
// passed through to the scan kernel untouched, so the steady state
// allocates nothing.
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
	first, ok := endNodeOn(s, p)
	if !ok {
		return
	}
	if !fn(int(first) - len(p)) {
		return
	}
	patlen := int32(len(p))
	if blockSkipOff.Load() {
		buf := []int32{first}
		n := s.textLen()
		for j := first + 1; j <= n; j++ {
			link, lel := s.linkOf(j)
			if lel >= patlen && containsSorted(buf, link) {
				buf = append(buf, j)
				if !fn(int(j) - len(p)) {
					return
				}
			}
		}
		return
	}
	sc := getScratch(s.textLen())
	occEachOn(nil, s, sc, first, patlen, func(j int32) bool { return fn(int(j) - len(p)) })
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
