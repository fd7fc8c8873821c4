package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/spine-index/spine/internal/seq"
)

// CompactIndex is the read-optimized §5 layout of a SPINE index. It
// realizes every space optimization the paper describes:
//
//   - Implicit vertebras: node order equals creation order, so vertebra
//     destinations are not stored; character labels are bit-packed (2 bits
//     per DNA symbol, 5 per protein residue).
//   - Small numeric labels: LEL/PT/PRT fields are 2 bytes, with a sentinel
//     redirecting the rare value >= 65535 to an overflow table (Table 3
//     shows real-genome labels stay below ~25k).
//   - Sparse rib storage: the dense Link Table (LT) holds one entry per
//     node; only nodes with downstream edges carry a tagged pointer into
//     one of several Rib Tables (RTs), one table per edge-count shape so
//     no slots are wasted (Figure 5). Nodes with more than three ribs —
//     possible on protein alphabets — go to a CSR-shaped spill table.
//
// A CompactIndex is immutable: build an Index online, then Freeze it.
// Queries take raw letters and translate through the alphabet; patterns
// containing letters outside the alphabet simply do not occur.
type CompactIndex struct {
	alpha *seq.Alphabet
	chars *seq.Packed // vertebra character codes
	n     int32

	lel []uint16 // LT: per node 1..n (slot 0 unused)
	ref []uint32 // LT: per node; LD, or tagged RT locator (see refTag)

	tables [numShapes]ribTable
	spill  spillTable

	lelOverflow map[int32]int32    // node -> LEL when >= labelSentinel
	ptOverflow  map[uint64]int32   // (src<<8|cl) -> rib PT
	extOverflow map[int32][2]int32 // ext-source node -> {PT, PRT}

	// blocks is the block-max skip index, built at freeze/load time. It
	// joins the layout's space accounting: 12 bytes per 64 nodes, under
	// 0.2 bytes per indexed character.
	blocks []blockMeta
	// blockLEL packs the blocks' maxLEL fields as saturated uint16 lanes
	// (4 blocks per word) for the SWAR admission prefilter; rebuilt
	// wherever blocks is rebuilt.
	blockLEL []uint64
	// ldTabs is the link-destination column of every rib table by shape
	// id, slot 0 the spill table's, so the scan probe decodes a tagged
	// ref with two indexed loads and no branch on the shape. The rows
	// alias spill.ld and tables[1..7].ld; an empty spill table gets a
	// one-element dummy row, because the probe reads row 0 of slot 0 for
	// every untagged ref. Derived with blockLEL (deriveScanState), never
	// serialized.
	ldTabs [numShapes][]uint32

	// ra is the optional scan readahead sink (see SetScanReadahead);
	// nil for memory-resident indexes.
	ra raPointer
}

const (
	// refTag marks an LT ref as an RT locator: bits 28..30 select the
	// table shape, bits 0..27 the row. Plain refs are link destinations.
	refTag        = uint32(1) << 31
	refShapeShift = 28
	refRowMask    = (uint32(1) << refShapeShift) - 1

	// labelSentinel in a 2-byte field redirects to the overflow tables.
	labelSentinel = uint16(0xFFFF)

	// maxInlineRibs is the largest rib count with a dedicated table shape;
	// DNA needs at most alphabet-1 = 3. Larger fan-outs spill.
	maxInlineRibs = 3
	// numShapes: rib counts 0..3 x {extrib, no extrib}, minus the empty
	// shape, plus one slot to keep indexing simple. Shape id =
	// ribCount*2 + ext, ids 1..7; id 0 denotes the spill table.
	numShapes = 8
)

// ribTable stores all nodes sharing one edge shape (fixed rib count r,
// extrib present or not) in parallel flat arrays — the Figure 5 RT layout.
// Flat arrays keep the structure pointer-free, which matters for GC cost
// at genome scale.
type ribTable struct {
	ribs   int // ribs per row
	hasExt bool

	ld     []uint32 // link destination, one per row
	ribRD  []uint32 // len rows*ribs
	ribPT  []uint16
	ribCL  []byte
	extRD  []uint32 // one per row when hasExt
	extPT  []uint16
	extPRT []uint16
	extSrc []uint32
}

// spillTable holds nodes with more than maxInlineRibs ribs, CSR-shaped.
type spillTable struct {
	ld     []uint32
	start  []uint32 // CSR offsets, len rows+1
	ribRD  []uint32
	ribPT  []uint16
	ribCL  []byte
	extRD  []uint32 // 0 = no extrib (node 0 is never an extrib target)
	extPT  []uint16
	extPRT []uint16
	extSrc []uint32
}

// Freeze converts a built reference index into the compact layout. The
// alphabet must cover every character of the indexed text.
func Freeze(idx *Index, alpha *seq.Alphabet) (*CompactIndex, error) {
	if alpha == nil {
		return nil, fmt.Errorf("core: Freeze requires an alphabet")
	}
	codes, err := alpha.Encode(idx.text)
	if err != nil {
		return nil, fmt.Errorf("core: freezing index: %w", err)
	}
	packed, err := seq.NewPacked(codes, alpha.Bits())
	if err != nil {
		return nil, fmt.Errorf("core: freezing index: %w", err)
	}
	n := int32(idx.Len())
	c := &CompactIndex{
		alpha:       alpha,
		chars:       packed,
		n:           n,
		lel:         make([]uint16, n+1),
		ref:         make([]uint32, n+1),
		lelOverflow: make(map[int32]int32),
		ptOverflow:  make(map[uint64]int32),
		extOverflow: make(map[int32][2]int32),
	}
	for shape := 1; shape < numShapes; shape++ {
		c.tables[shape].ribs = shape >> 1
		c.tables[shape].hasExt = shape&1 == 1
	}
	c.spill.start = append(c.spill.start, 0)

	for i := int32(0); i <= n; i++ {
		if i > 0 {
			c.lel[i] = c.squeezeLEL(i, idx.lel[i])
		}
		ribs := idx.Ribs(int(i))
		ext, hasExt := idx.ExtribAt(int(i))
		if len(ribs) == 0 && !hasExt {
			c.ref[i] = uint32(idx.link[i]) // plain LD (unused for the root)
			continue
		}
		ld := uint32(idx.link[i])
		if len(ribs) > maxInlineRibs {
			c.ref[i] = c.spillRow(i, ld, ribs, ext, hasExt, alpha)
			continue
		}
		shape := len(ribs)<<1 | boolBit(hasExt)
		tb := &c.tables[shape]
		row := uint32(len(tb.ld))
		if row > refRowMask {
			return nil, fmt.Errorf("core: RT shape %d exceeds %d rows", shape, refRowMask)
		}
		tb.ld = append(tb.ld, ld)
		for _, r := range ribs {
			tb.ribRD = append(tb.ribRD, uint32(r.Dest))
			tb.ribPT = append(tb.ribPT, c.squeezeRibPT(i, r, alpha))
			tb.ribCL = append(tb.ribCL, byte(alpha.Code(r.CL)))
		}
		if hasExt {
			tb.extRD = append(tb.extRD, uint32(ext.Dest))
			pt, prt := c.squeezeExt(i, ext)
			tb.extPT = append(tb.extPT, pt)
			tb.extPRT = append(tb.extPRT, prt)
			tb.extSrc = append(tb.extSrc, uint32(ext.ParentSrc))
		}
		c.ref[i] = refTag | uint32(shape)<<refShapeShift | row
	}
	c.blocks = buildBlocksOn(c)
	c.deriveScanState()
	return c, nil
}

// deriveScanState rebuilds the scan state that is derived from the
// layout and never serialized — the packed admission lanes and the
// probe's link-destination rows — once blocks and the rib tables are
// final. Every constructor and loader ends with it.
func (c *CompactIndex) deriveScanState() {
	c.blockLEL = packBlockLELs(c.blocks)
	c.ldTabs[0] = c.spill.ld
	if len(c.spill.ld) == 0 {
		c.ldTabs[0] = make([]uint32, 1)
	}
	for shape := 1; shape < numShapes; shape++ {
		c.ldTabs[shape] = c.tables[shape].ld
	}
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (c *CompactIndex) spillRow(i int32, ld uint32, ribs []Rib, ext Extrib, hasExt bool, alpha *seq.Alphabet) uint32 {
	sp := &c.spill
	row := uint32(len(sp.ld))
	sp.ld = append(sp.ld, ld)
	for _, r := range ribs {
		sp.ribRD = append(sp.ribRD, uint32(r.Dest))
		sp.ribPT = append(sp.ribPT, c.squeezeRibPT(i, r, alpha))
		sp.ribCL = append(sp.ribCL, byte(alpha.Code(r.CL)))
	}
	sp.start = append(sp.start, uint32(len(sp.ribRD)))
	if hasExt {
		sp.extRD = append(sp.extRD, uint32(ext.Dest))
		pt, prt := c.squeezeExt(i, ext)
		sp.extPT = append(sp.extPT, pt)
		sp.extPRT = append(sp.extPRT, prt)
		sp.extSrc = append(sp.extSrc, uint32(ext.ParentSrc))
	} else {
		sp.extRD = append(sp.extRD, 0)
		sp.extPT = append(sp.extPT, 0)
		sp.extPRT = append(sp.extPRT, 0)
		sp.extSrc = append(sp.extSrc, 0)
	}
	return refTag | row // shape bits 0 = spill
}

func (c *CompactIndex) squeezeLEL(node, v int32) uint16 {
	if v < int32(labelSentinel) {
		return uint16(v)
	}
	c.lelOverflow[node] = v
	return labelSentinel
}

func (c *CompactIndex) squeezeRibPT(src int32, r Rib, alpha *seq.Alphabet) uint16 {
	return c.squeezeRibPTCode(src, byte(alpha.Code(r.CL)), r.PT)
}

// squeezeRibPTCode is squeezeRibPT for a rib whose CL is already an
// alphabet code (the CompactBuilder's native representation).
func (c *CompactIndex) squeezeRibPTCode(src int32, clCode byte, pt int32) uint16 {
	if pt < int32(labelSentinel) {
		return uint16(pt)
	}
	c.ptOverflow[uint64(src)<<8|uint64(clCode)] = pt
	return labelSentinel
}

func (c *CompactIndex) squeezeExt(src int32, x Extrib) (pt, prt uint16) {
	if x.PT < int32(labelSentinel) && x.PRT < int32(labelSentinel) {
		return uint16(x.PT), uint16(x.PRT)
	}
	c.extOverflow[src] = [2]int32{x.PT, x.PRT}
	return labelSentinel, labelSentinel
}

// Len returns the number of indexed characters.
func (c *CompactIndex) Len() int { return int(c.n) }

// Alphabet returns the alphabet the index was frozen with.
func (c *CompactIndex) Alphabet() *seq.Alphabet { return c.alpha }

// Text reconstructs the indexed string from the packed vertebra labels —
// the §1.1 property that the data string "is not required any more once
// the index is constructed" made concrete: the index is its own text.
func (c *CompactIndex) Text() []byte {
	out := make([]byte, c.n)
	for i := int32(0); i < c.n; i++ {
		out[i] = c.alpha.Letter(int(c.chars.At(int(i))))
	}
	return out
}

// ComputeStats measures the structural statistics of the compact layout;
// fan-out counts come directly from the per-shape table sizes.
func (c *CompactIndex) ComputeStats() Stats {
	st := Stats{
		Length:      int(c.n),
		FanoutNodes: make([]int, 6),
	}
	withEdges := 0
	for shape := 1; shape < numShapes; shape++ {
		tb := &c.tables[shape]
		rows := len(tb.ld)
		withEdges += rows
		fan := tb.ribs
		if tb.hasExt {
			fan++
		}
		if fan >= len(st.FanoutNodes) {
			fan = len(st.FanoutNodes) - 1
		}
		st.FanoutNodes[fan] += rows
		st.RibCount += rows * tb.ribs
		if tb.hasExt {
			st.ExtribCount += rows
		}
	}
	sp := &c.spill
	for row := range sp.ld {
		withEdges++
		ribs := int(sp.start[row+1] - sp.start[row])
		fan := ribs
		hasExt := sp.extRD[row] != 0
		if hasExt {
			fan++
			st.ExtribCount++
		}
		st.RibCount += ribs
		if fan >= len(st.FanoutNodes) {
			fan = len(st.FanoutNodes) - 1
		}
		st.FanoutNodes[fan]++
	}
	st.FanoutNodes[0] = int(c.n) + 1 - withEdges
	// Label maxima: scan the 2-byte fields, resolving overflow entries.
	for i := int32(1); i <= c.n; i++ {
		_, lel := c.linkOf(i)
		if lel > st.MaxLEL {
			st.MaxLEL = lel
		}
	}
	for _, v := range c.ptOverflow {
		if v > st.MaxPT {
			st.MaxPT = v
		}
	}
	scanPTs := func(pts []uint16) {
		for _, v := range pts {
			if v != labelSentinel && int32(v) > st.MaxPT {
				st.MaxPT = int32(v)
			}
		}
	}
	for shape := 1; shape < numShapes; shape++ {
		scanPTs(c.tables[shape].ribPT)
		scanPTs(c.tables[shape].extPT)
		for _, v := range c.tables[shape].extPRT {
			if v != labelSentinel && int32(v) > st.MaxPRT {
				st.MaxPRT = int32(v)
			}
		}
	}
	scanPTs(sp.ribPT)
	scanPTs(sp.extPT)
	for _, v := range sp.extPRT {
		if v != labelSentinel && int32(v) > st.MaxPRT {
			st.MaxPRT = int32(v)
		}
	}
	for _, v := range c.extOverflow {
		if v[0] > st.MaxPT {
			st.MaxPT = v[0]
		}
		if v[1] > st.MaxPRT {
			st.MaxPRT = v[1]
		}
	}
	return st
}

// store implementation (native representation: alphabet codes).

func (c *CompactIndex) textLen() int32          { return c.n }
func (c *CompactIndex) charAt(v int32) byte     { return c.chars.At(int(v)) }
func (c *CompactIndex) skipBlocks() []blockMeta { return c.blocks }

// SWAR kernel surface: vertebra labels live bit-packed in chars (the
// alphabet width per lane) and LELs are saturated uint16 (4 lanes per
// word). Odd widths — the 5-bit protein packing — fail swarCapable and
// route descents through the scalar oracle.

func (c *CompactIndex) blockLELs() []uint64     { return c.blockLEL }
func (c *CompactIndex) vertBits() uint          { return c.alpha.Bits() }
func (c *CompactIndex) vertWord(v int32) uint64 { return c.chars.WordAt(int(v)) }

// lelMask compares four saturated uint16 LEL lanes per word. The
// sentinel saturation makes the mask conservative (an overflowed LEL
// always passes); nextMember re-checks the exact LEL.
func (c *CompactIndex) lelMask(j, last, patlen int32) (mask uint64, words int64) {
	t, k := satLEL16(patlen), uint(0)
	for ; j+3 <= last; j, k = j+4, k+4 {
		m := laneGE16(loadQuad16(c.lel, int(j)), t)
		// Gather the four lane-top bits (15, 31, 47, 63) into a nibble:
		// the multiplier's terms land them on bits 45..48 and every
		// cross term elsewhere.
		mask |= (((m >> 15) * (1<<45 | 1<<30 | 1<<15 | 1)) >> 45 & 0xF) << k
		words++
	}
	for ; j <= last; j, k = j+1, k+1 {
		if c.lel[j] >= t {
			mask |= 1 << k
		}
	}
	return mask, words
}

// nextMember re-tests every candidate's exact LEL itself: the mask is
// only a superset under the scalar kernel, for saturated lanes and after
// a raised batch threshold, and testing here is right whichever kernel
// built it. The link decode is ldOf without its branch on the tag bit,
// which a quarter of a repeat-rich genome's refs carry in no learnable
// pattern: m is all-ones for a tagged ref and zero otherwise, so an
// untagged ref reads row 0 of slot 0 (always present) and discards it.
func (c *CompactIndex) nextMember(base int32, mask uint64, patlen int32, bits []uint64) (int32, uint64) {
	lels, refs, tabs := c.lel, c.ref, &c.ldTabs
	for mask != 0 {
		var k int32
		k, mask = lowestLane(mask)
		j := base + k
		if l := lels[j]; int32(l) < patlen {
			if l != labelSentinel {
				continue
			}
			if _, lel := c.linkOf(j); lel < patlen {
				continue
			}
		}
		ref := refs[j]
		m := uint32(int32(ref) >> 31)
		v := tabs[(ref>>refShapeShift)&7&m][ref&refRowMask&m]
		ld := v&m | ref&^m
		if bits[ld>>6]>>(ld&63)&1 != 0 {
			return j, mask
		}
	}
	return 0, 0
}

func (c *CompactIndex) linkOf(i int32) (int32, int32) {
	lel := int32(c.lel[i])
	if c.lel[i] == labelSentinel {
		if v, ok := c.lelOverflow[i]; ok {
			lel = v
		}
	}
	return int32(c.ldOf(i)), lel
}

func (c *CompactIndex) ldOf(i int32) uint32 {
	ref := c.ref[i]
	if ref&refTag == 0 {
		return ref
	}
	shape := (ref >> refShapeShift) & 7
	row := ref & refRowMask
	if shape == 0 {
		return c.spill.ld[row]
	}
	return c.tables[shape].ld[row]
}

func (c *CompactIndex) findRib(t int32, code byte) (Rib, bool) {
	ref := c.ref[t]
	if ref&refTag == 0 {
		return Rib{}, false
	}
	shape := (ref >> refShapeShift) & 7
	row := ref & refRowMask
	var rds []uint32
	var pts []uint16
	var cls []byte
	if shape == 0 {
		lo, hi := c.spill.start[row], c.spill.start[row+1]
		rds, pts, cls = c.spill.ribRD[lo:hi], c.spill.ribPT[lo:hi], c.spill.ribCL[lo:hi]
	} else {
		tb := &c.tables[shape]
		lo := int(row) * tb.ribs
		hi := lo + tb.ribs
		rds, pts, cls = tb.ribRD[lo:hi], tb.ribPT[lo:hi], tb.ribCL[lo:hi]
	}
	for j, cl := range cls {
		if cl != code {
			continue
		}
		pt := int32(pts[j])
		if pts[j] == labelSentinel {
			if v, ok := c.ptOverflow[uint64(t)<<8|uint64(code)]; ok {
				pt = v
			}
		}
		return Rib{CL: code, Dest: int32(rds[j]), PT: pt}, true
	}
	return Rib{}, false
}

func (c *CompactIndex) findExtrib(t int32) (Extrib, bool) {
	ref := c.ref[t]
	if ref&refTag == 0 {
		return Extrib{}, false
	}
	shape := (ref >> refShapeShift) & 7
	row := ref & refRowMask
	var rd uint32
	var pt16, prt16 uint16
	var src uint32
	if shape == 0 {
		rd = c.spill.extRD[row]
		if rd == 0 {
			return Extrib{}, false
		}
		pt16, prt16, src = c.spill.extPT[row], c.spill.extPRT[row], c.spill.extSrc[row]
	} else {
		tb := &c.tables[shape]
		if !tb.hasExt {
			return Extrib{}, false
		}
		rd, pt16, prt16, src = tb.extRD[row], tb.extPT[row], tb.extPRT[row], tb.extSrc[row]
	}
	pt, prt := int32(pt16), int32(prt16)
	if pt16 == labelSentinel || prt16 == labelSentinel {
		if v, ok := c.extOverflow[t]; ok {
			pt, prt = v[0], v[1]
		}
	}
	return Extrib{Dest: int32(rd), PT: pt, PRT: prt, ParentSrc: int32(src)}, true
}

// encodePattern translates a letter pattern to codes; ok is false when the
// pattern contains a letter outside the alphabet (and hence cannot occur).
func (c *CompactIndex) encodePattern(p []byte) ([]byte, bool) {
	out := make([]byte, len(p))
	for i, b := range p {
		code := c.alpha.Code(b)
		if code < 0 {
			return nil, false
		}
		out[i] = byte(code)
	}
	return out, true
}

// patBuf is a pooled pattern-code buffer; the compact hot paths encode
// into it so translation costs no allocation at steady state.
type patBuf struct{ b []byte }

var patBufPool = sync.Pool{New: func() any { return new(patBuf) }}

// encodePatternPooled is encodePattern into a pooled buffer. When ok,
// the caller must release pb with patBufPool.Put once codes is dead; on
// failure the buffer is already released.
func (c *CompactIndex) encodePatternPooled(p []byte) (pb *patBuf, codes []byte, ok bool) {
	pb = patBufPool.Get().(*patBuf)
	if cap(pb.b) < len(p) {
		pb.b = make([]byte, len(p))
	}
	codes = pb.b[:len(p)]
	for i, b := range p {
		code := c.alpha.Code(b)
		if code < 0 {
			patBufPool.Put(pb)
			return nil, nil, false
		}
		codes[i] = byte(code)
	}
	return pb, codes, true
}

// Contains reports whether p (raw letters) is a substring of the text.
func (c *CompactIndex) Contains(p []byte) bool {
	pb, codes, ok := c.encodePatternPooled(p)
	if !ok {
		return false
	}
	_, ok = endNodeOn(c, codes, nil)
	patBufPool.Put(pb)
	return ok
}

// Find returns the start offset of the first occurrence of p, or -1.
func (c *CompactIndex) Find(p []byte) int {
	pb, codes, ok := c.encodePatternPooled(p)
	if !ok {
		return -1
	}
	end, ok := endNodeOn(c, codes, nil)
	patBufPool.Put(pb)
	if !ok {
		return -1
	}
	return int(end) - len(p)
}

// FindAll returns every occurrence start offset of p, increasing; nil if
// absent.
func (c *CompactIndex) FindAll(p []byte) []int {
	return c.FindAllAppend(p, nil)
}

// FindAllAppend is FindAll appending into dst; see Index.FindAllAppend.
func (c *CompactIndex) FindAllAppend(p []byte, dst []int) []int {
	pb, codes, ok := c.encodePatternPooled(p)
	if !ok {
		return dst
	}
	dst, _, _, _ = findAllOn(context.Background(), c, codes, 0, dst)
	patBufPool.Put(pb)
	return dst
}

// Count returns the number of occurrences of p via the streaming scan;
// no occurrence slice is materialized.
func (c *CompactIndex) Count(p []byte) int {
	pb, codes, ok := c.encodePatternPooled(p)
	if !ok {
		return 0
	}
	n, _, _ := countOn(context.Background(), c, codes, -1)
	patBufPool.Put(pb)
	return n
}

// ForEachOccurrence streams every occurrence start offset of p in
// increasing order to fn, stopping early if fn returns false; see
// Index.ForEachOccurrence.
func (c *CompactIndex) ForEachOccurrence(p []byte, fn func(start int) bool) {
	pb, codes, ok := c.encodePatternPooled(p)
	if !ok {
		return
	}
	forEachOccurrenceOn(c, codes, fn)
	patBufPool.Put(pb)
}

// CompactCursor is the matching-statistics cursor over the compact layout;
// see Cursor for semantics. Advance takes raw letters.
type CompactCursor struct {
	cursorState[*CompactIndex]
}

// NewCompactCursor returns a cursor over c at the root with empty match.
func NewCompactCursor(c *CompactIndex) *CompactCursor {
	return &CompactCursor{cursorState[*CompactIndex]{st: c}}
}

// Advance consumes one query letter, translating to the alphabet code
// space. A letter outside the alphabet cannot match anywhere: the cursor
// resets to the root with an empty match.
func (cc *CompactCursor) Advance(letter byte) {
	code := cc.st.alpha.Code(letter)
	if code < 0 {
		cc.Checked++
		cc.Node, cc.Len = 0, 0
		return
	}
	cc.cursorState.Advance(byte(code))
}

// SizeBytes returns the total compact-layout footprint in bytes — the
// figure behind the paper's "less than 12 bytes per indexed character".
func (c *CompactIndex) SizeBytes() int64 {
	b := int64(c.chars.SizeBytes())
	b += int64(len(c.lel)) * 2
	b += int64(len(c.ref)) * 4
	for i := 1; i < numShapes; i++ {
		tb := &c.tables[i]
		b += int64(len(tb.ld))*4 +
			int64(len(tb.ribRD))*4 + int64(len(tb.ribPT))*2 + int64(len(tb.ribCL)) +
			int64(len(tb.extRD))*4 + int64(len(tb.extPT))*2 + int64(len(tb.extPRT))*2 + int64(len(tb.extSrc))*4
	}
	sp := &c.spill
	b += int64(len(sp.ld))*4 + int64(len(sp.start))*4 +
		int64(len(sp.ribRD))*4 + int64(len(sp.ribPT))*2 + int64(len(sp.ribCL)) +
		int64(len(sp.extRD))*4 + int64(len(sp.extPT))*2 + int64(len(sp.extPRT))*2 + int64(len(sp.extSrc))*4
	b += int64(len(c.lelOverflow)+len(c.ptOverflow))*12 + int64(len(c.extOverflow))*16
	b += int64(len(c.blocks)) * 12  // block-max skip index (3 x int32 per block)
	b += int64(len(c.blockLEL)) * 8 // packed SWAR admission lanes (2 bytes per block)
	return b
}

// BytesPerChar returns SizeBytes divided by the text length.
func (c *CompactIndex) BytesPerChar() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.SizeBytes()) / float64(c.n)
}
