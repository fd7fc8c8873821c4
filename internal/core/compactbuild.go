package core

import (
	"fmt"

	"github.com/spine-index/spine/internal/seq"
)

// CompactBuilder constructs a CompactIndex directly in the §5 table
// layout, online — the way the paper's prototype builds. When a node
// acquires an additional downstream edge its row moves to the rib table of
// the next shape ("it might appear at first glance that the construction
// time of SPINE would degrade due to the movement of nodes across the RTs
// ... we have experimentally observed that this impact is negligible");
// the BenchmarkAblationDirectCompactBuild ablation measures exactly that.
//
// The builder maintains, per table, a row -> node back-map so a
// swap-with-last delete can repair the displaced node's locator. Spill
// rows (fan-out beyond three ribs, protein alphabets) are CSR-shaped and
// immutable, so a spill-row change appends a fresh row and abandons the
// old one; Finish compacts the garbage away.
type CompactBuilder struct {
	c *CompactIndex
	// rowNode[shape][row] is the node owning that row.
	rowNode [numShapes][]uint32
	// spillNode[row] is the node owning that spill row (or dead).
	spillNode []uint32
}

// NewCompactBuilder returns an empty builder over the given alphabet.
func NewCompactBuilder(alpha *seq.Alphabet) (*CompactBuilder, error) {
	if alpha == nil {
		return nil, fmt.Errorf("core: CompactBuilder requires an alphabet")
	}
	packed, err := seq.NewPacked(nil, alpha.Bits())
	if err != nil {
		return nil, err
	}
	c := &CompactIndex{
		alpha:       alpha,
		chars:       packed,
		lel:         make([]uint16, 1),
		ref:         make([]uint32, 1),
		lelOverflow: make(map[int32]int32),
		ptOverflow:  make(map[uint64]int32),
		extOverflow: make(map[int32][2]int32),
	}
	for shape := 1; shape < numShapes; shape++ {
		c.tables[shape].ribs = shape >> 1
		c.tables[shape].hasExt = shape&1 == 1
	}
	c.spill.start = append(c.spill.start, 0)
	return &CompactBuilder{c: c}, nil
}

// Len returns the number of appended characters.
func (b *CompactBuilder) Len() int { return int(b.c.n) }

// Append extends the index by one character (a raw alphabet letter).
func (b *CompactBuilder) Append(letter byte) error {
	code := b.c.alpha.Code(letter)
	if code < 0 {
		return fmt.Errorf("core: letter %q not in the alphabet", letter)
	}
	return b.appendCode(byte(code))
}

func (b *CompactBuilder) appendCode(code byte) error {
	c := b.c
	k := c.n
	if err := c.chars.Append(code); err != nil {
		return err
	}
	c.n++
	c.lel = append(c.lel, 0)
	c.ref = append(c.ref, 0)
	newNode := k + 1

	if k == 0 {
		b.setLink(newNode, 0, 0)
		return nil
	}
	t, L := c.linkOf(k)
	for {
		if c.charAt(t) == code {
			b.setLink(newNode, t+1, L+1)
			return nil
		}
		if r, ok := c.findRib(t, code); ok {
			if L <= r.PT {
				b.setLink(newNode, r.Dest, L+1)
				return nil
			}
			return b.handleExtribs(t, r, L, newNode)
		}
		b.addRib(t, Rib{CL: code, Dest: newNode, PT: L})
		if t == 0 {
			b.setLink(newNode, 0, 0)
			return nil
		}
		t, L = c.linkOf(t)
	}
}

func (b *CompactBuilder) handleExtribs(t int32, r Rib, L, newNode int32) error {
	c := b.c
	lastDest, lastPT := r.Dest, r.PT
	node := r.Dest
	for {
		x, ok := c.findExtrib(node)
		if !ok {
			break
		}
		if x.ParentSrc == t && x.PRT == r.PT {
			if x.PT >= L {
				b.setLink(newNode, x.Dest, L+1)
				return nil
			}
			lastDest, lastPT = x.Dest, x.PT
		}
		node = x.Dest
	}
	b.setExtrib(node, Extrib{Dest: newNode, PT: L, PRT: r.PT, ParentSrc: t})
	b.setLink(newNode, lastDest, lastPT+1)
	return nil
}

func (b *CompactBuilder) setLink(node, dest, lel int32) {
	c := b.c
	c.lel[node] = c.squeezeLEL(node, lel)
	if c.ref[node]&refTag == 0 {
		c.ref[node] = uint32(dest)
		return
	}
	// The node already has an edge row; the LD lives there.
	shape := (c.ref[node] >> refShapeShift) & 7
	row := c.ref[node] & refRowMask
	if shape == 0 {
		c.spill.ld[row] = uint32(dest)
	} else {
		c.tables[shape].ld[row] = uint32(dest)
	}
}

// rowOf decodes a node's current edge location.
func (b *CompactBuilder) rowOf(node int32) (shape int32, row uint32, tagged bool) {
	ref := b.c.ref[node]
	if ref&refTag == 0 {
		return 0, 0, false
	}
	return int32((ref >> refShapeShift) & 7), ref & refRowMask, true
}

// extractRow removes node's current edge row, returning its contents.
// The node's ref reverts to a plain LD.
func (b *CompactBuilder) extractRow(node int32) (ld uint32, ribs []Rib, ext Extrib, hasExt bool) {
	c := b.c
	shape, row, tagged := b.rowOf(node)
	if !tagged {
		return c.ref[node], nil, Extrib{}, false
	}
	if shape == 0 {
		// Spill rows are abandoned in place; Finish compacts.
		sp := &c.spill
		ld = sp.ld[row]
		lo, hi := sp.start[row], sp.start[row+1]
		for i := lo; i < hi; i++ {
			ribs = append(ribs, Rib{CL: sp.ribCL[i], Dest: int32(sp.ribRD[i]), PT: b.widenRibPT(node, sp.ribCL[i], sp.ribPT[i])})
		}
		if sp.extRD[row] != 0 {
			hasExt = true
			ext = b.widenExt(node, sp.extRD[row], sp.extPT[row], sp.extPRT[row], sp.extSrc[row])
		}
		b.spillNode[row] = deadRow
		c.ref[node] = ld
		return ld, ribs, ext, hasExt
	}
	tb := &c.tables[shape]
	ld = tb.ld[row]
	base := int(row) * tb.ribs
	for j := 0; j < tb.ribs; j++ {
		ribs = append(ribs, Rib{CL: tb.ribCL[base+j], Dest: int32(tb.ribRD[base+j]), PT: b.widenRibPT(node, tb.ribCL[base+j], tb.ribPT[base+j])})
	}
	if tb.hasExt {
		hasExt = true
		ext = b.widenExt(node, tb.extRD[row], tb.extPT[row], tb.extPRT[row], tb.extSrc[row])
	}
	b.deleteShapeRow(shape, row)
	c.ref[node] = ld
	return ld, ribs, ext, hasExt
}

// deadRow marks an abandoned spill row.
const deadRow = ^uint32(0)

// deleteShapeRow removes a row from a fixed-shape table with
// swap-with-last, repairing the displaced node's locator.
func (b *CompactBuilder) deleteShapeRow(shape int32, row uint32) {
	c := b.c
	tb := &c.tables[shape]
	last := uint32(len(tb.ld) - 1)
	if row != last {
		tb.ld[row] = tb.ld[last]
		baseDst, baseSrc := int(row)*tb.ribs, int(last)*tb.ribs
		copy(tb.ribRD[baseDst:baseDst+tb.ribs], tb.ribRD[baseSrc:baseSrc+tb.ribs])
		copy(tb.ribPT[baseDst:baseDst+tb.ribs], tb.ribPT[baseSrc:baseSrc+tb.ribs])
		copy(tb.ribCL[baseDst:baseDst+tb.ribs], tb.ribCL[baseSrc:baseSrc+tb.ribs])
		if tb.hasExt {
			tb.extRD[row] = tb.extRD[last]
			tb.extPT[row] = tb.extPT[last]
			tb.extPRT[row] = tb.extPRT[last]
			tb.extSrc[row] = tb.extSrc[last]
		}
		moved := b.rowNode[shape][last]
		b.rowNode[shape][row] = moved
		c.ref[moved] = refTag | uint32(shape)<<refShapeShift | row
	}
	tb.ld = tb.ld[:last]
	tb.ribRD = tb.ribRD[:int(last)*tb.ribs]
	tb.ribPT = tb.ribPT[:int(last)*tb.ribs]
	tb.ribCL = tb.ribCL[:int(last)*tb.ribs]
	if tb.hasExt {
		tb.extRD = tb.extRD[:last]
		tb.extPT = tb.extPT[:last]
		tb.extPRT = tb.extPRT[:last]
		tb.extSrc = tb.extSrc[:last]
	}
	b.rowNode[shape] = b.rowNode[shape][:last]
}

// placeRow installs (ld, ribs, ext) as node's edge row in the table of the
// appropriate shape (or the spill table).
func (b *CompactBuilder) placeRow(node int32, ld uint32, ribs []Rib, ext Extrib, hasExt bool) {
	c := b.c
	if len(ribs) > maxInlineRibs {
		sp := &c.spill
		row := uint32(len(sp.ld))
		sp.ld = append(sp.ld, ld)
		for _, r := range ribs {
			sp.ribRD = append(sp.ribRD, uint32(r.Dest))
			sp.ribPT = append(sp.ribPT, c.squeezeRibPTCode(node, r.CL, r.PT))
			sp.ribCL = append(sp.ribCL, r.CL)
		}
		sp.start = append(sp.start, uint32(len(sp.ribRD)))
		if hasExt {
			sp.extRD = append(sp.extRD, uint32(ext.Dest))
			pt, prt := c.squeezeExt(node, ext)
			sp.extPT = append(sp.extPT, pt)
			sp.extPRT = append(sp.extPRT, prt)
			sp.extSrc = append(sp.extSrc, uint32(ext.ParentSrc))
		} else {
			sp.extRD = append(sp.extRD, 0)
			sp.extPT = append(sp.extPT, 0)
			sp.extPRT = append(sp.extPRT, 0)
			sp.extSrc = append(sp.extSrc, 0)
		}
		b.spillNode = append(b.spillNode, uint32(node))
		c.ref[node] = refTag | row
		return
	}
	shape := int32(len(ribs)<<1 | boolBit(hasExt))
	tb := &c.tables[shape]
	row := uint32(len(tb.ld))
	tb.ld = append(tb.ld, ld)
	for _, r := range ribs {
		tb.ribRD = append(tb.ribRD, uint32(r.Dest))
		tb.ribPT = append(tb.ribPT, c.squeezeRibPTCode(node, r.CL, r.PT))
		tb.ribCL = append(tb.ribCL, r.CL)
	}
	if hasExt {
		tb.extRD = append(tb.extRD, uint32(ext.Dest))
		pt, prt := c.squeezeExt(node, ext)
		tb.extPT = append(tb.extPT, pt)
		tb.extPRT = append(tb.extPRT, prt)
		tb.extSrc = append(tb.extSrc, uint32(ext.ParentSrc))
	}
	b.rowNode[shape] = append(b.rowNode[shape], uint32(node))
	c.ref[node] = refTag | uint32(shape)<<refShapeShift | row
}

// widenRibPT resolves a possibly-overflowed stored rib PT.
func (b *CompactBuilder) widenRibPT(node int32, cl byte, pt16 uint16) int32 {
	if pt16 != labelSentinel {
		return int32(pt16)
	}
	if v, ok := b.c.ptOverflow[uint64(node)<<8|uint64(cl)]; ok {
		return v
	}
	return int32(pt16)
}

func (b *CompactBuilder) widenExt(node int32, rd uint32, pt16, prt16 uint16, src uint32) Extrib {
	pt, prt := int32(pt16), int32(prt16)
	if pt16 == labelSentinel || prt16 == labelSentinel {
		if v, ok := b.c.extOverflow[node]; ok {
			pt, prt = v[0], v[1]
		}
	}
	return Extrib{Dest: int32(rd), PT: pt, PRT: prt, ParentSrc: int32(src)}
}

// addRib moves node's row up one rib shape with the new rib appended
// (note: squeezeRibPT re-registers overflow entries idempotently).
func (b *CompactBuilder) addRib(node int32, r Rib) {
	ld, ribs, ext, hasExt := b.extractRow(node)
	ribs = append(ribs, r)
	b.placeRow(node, ld, ribs, ext, hasExt)
}

// setExtrib moves node's row to its extrib-bearing shape.
func (b *CompactBuilder) setExtrib(node int32, x Extrib) {
	ld, ribs, _, hasExt := b.extractRow(node)
	if hasExt {
		panic(fmt.Sprintf("core: node %d already has an extrib", node))
	}
	b.placeRow(node, ld, ribs, x, true)
}

// Finish compacts abandoned spill rows and returns the completed index.
// The builder must not be used afterwards.
func (b *CompactBuilder) Finish() *CompactIndex {
	c := b.c
	if len(c.spill.ld) > 0 {
		old := c.spill
		var fresh spillTable
		fresh.start = append(fresh.start, 0)
		newRow := uint32(0)
		for row := range old.ld {
			node := b.spillNode[row]
			if node == deadRow {
				continue
			}
			fresh.ld = append(fresh.ld, old.ld[row])
			lo, hi := old.start[row], old.start[row+1]
			fresh.ribRD = append(fresh.ribRD, old.ribRD[lo:hi]...)
			fresh.ribPT = append(fresh.ribPT, old.ribPT[lo:hi]...)
			fresh.ribCL = append(fresh.ribCL, old.ribCL[lo:hi]...)
			fresh.start = append(fresh.start, uint32(len(fresh.ribRD)))
			fresh.extRD = append(fresh.extRD, old.extRD[row])
			fresh.extPT = append(fresh.extPT, old.extPT[row])
			fresh.extPRT = append(fresh.extPRT, old.extPRT[row])
			fresh.extSrc = append(fresh.extSrc, old.extSrc[row])
			c.ref[node] = refTag | newRow
			newRow++
		}
		c.spill = fresh
	}
	c.blocks = buildBlocksOn(c)
	c.deriveScanState()
	b.c = nil
	return c
}
