package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"github.com/spine-index/spine/internal/seq"
)

// Serialized compact-index formats (little-endian):
//
// Version 3 (current, written by Save) is the section-directory layout
// documented in serialize_v3.go: a fixed header plus a directory of
// 8-byte-aligned raw-array sections, openable zero-copy.
//
// Versions 1–2 are the legacy byte stream this file still reads:
//
//	magic "SPNE" | version u16 | alphabet: len u8 + letters |
//	n u32 | packed: bits u8 + codes u32 + code bytes |
//	lel []u16 | ref []u32 |
//	7 x shape table | spill table | 3 overflow maps |
//	v2: block-max skip index (3 x u32 per block) |
//	crc32 (IEEE) of everything before it
//
// Every length field is validated against sane bounds on load, and the
// checksum is verified before any data is trusted. Version 1 files (no
// block section) still load: the skip index is rebuilt from the link
// table in one O(n) pass.
const (
	serializeMagic   = "SPNE"
	serializeVersion = uint16(3)

	// serializeVersionLegacy is the newest pre-directory stream version.
	serializeVersionLegacy = uint16(2)
)

type countingReader struct {
	r   *bufio.Reader
	sum hash.Hash32
	err error
}

func (cr *countingReader) bytes(n int) []byte {
	if cr.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(cr.r, b); err != nil {
		cr.err = err
		return nil
	}
	cr.sum.Write(b)
	return b
}

func (cr *countingReader) u8() uint8 {
	b := cr.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (cr *countingReader) u16() uint16 {
	b := cr.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (cr *countingReader) u32() uint32 {
	b := cr.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (cr *countingReader) u64() uint64 {
	b := cr.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// lenCapped reads a length field and bounds it to keep a corrupt stream
// from forcing huge allocations before the checksum is verified.
func (cr *countingReader) lenCapped(max uint32, what string) int {
	n := cr.u32()
	if cr.err == nil && n > max {
		cr.err = fmt.Errorf("implausible %s length %d", what, n)
	}
	return int(n)
}

const maxReasonable = 1 << 28 // 256M entries caps any one array

// readChunk is the incremental allocation unit for array reads: a lying
// length field in a corrupt stream fails at EOF after at most one chunk of
// wasted work instead of committing gigabytes up front.
const readChunk = 1 << 16

func (cr *countingReader) u16s(what string) []uint16 {
	n := cr.lenCapped(maxReasonable, what)
	if cr.err != nil {
		return nil
	}
	var out []uint16
	for len(out) < n {
		batch := n - len(out)
		if batch > readChunk {
			batch = readChunk
		}
		b := cr.bytes(batch * 2)
		if cr.err != nil {
			return nil
		}
		for i := 0; i < batch; i++ {
			out = append(out, binary.LittleEndian.Uint16(b[i*2:]))
		}
	}
	return out
}

func (cr *countingReader) u32s(what string) []uint32 {
	n := cr.lenCapped(maxReasonable, what)
	if cr.err != nil {
		return nil
	}
	var out []uint32
	for len(out) < n {
		batch := n - len(out)
		if batch > readChunk {
			batch = readChunk
		}
		b := cr.bytes(batch * 4)
		if cr.err != nil {
			return nil
		}
		for i := 0; i < batch; i++ {
			out = append(out, binary.LittleEndian.Uint32(b[i*4:]))
		}
	}
	return out
}

func (cr *countingReader) byteSlice(what string) []byte {
	n := cr.lenCapped(maxReasonable, what)
	if cr.err != nil {
		return nil
	}
	var out []byte
	for len(out) < n {
		batch := n - len(out)
		if batch > readChunk {
			batch = readChunk
		}
		b := cr.bytes(batch)
		if cr.err != nil {
			return nil
		}
		out = append(out, b...)
	}
	return out
}

// ReadCompact deserializes a compact index written by Save, verifying
// magic, version, structural bounds, and every checksum. Version 3
// files go through the section-directory open with full verification
// (including the padding-is-zero rule, so any flipped bit is caught);
// version 1–2 streams use the legacy decoder.
func ReadCompact(r io.Reader) (*CompactIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	if len(data) >= 6 && string(data[:4]) == serializeMagic &&
		binary.LittleEndian.Uint16(data[4:6]) == serializeVersion {
		c, _, err := openCompactBytes(aligned8(data), true)
		return c, err
	}
	return readCompactLegacy(bytes.NewReader(data))
}

// readCompactLegacy decodes the version 1–2 byte-stream format.
func readCompactLegacy(r io.Reader) (*CompactIndex, error) {
	cr := &countingReader{r: bufio.NewReader(r), sum: crc32.NewIEEE()}
	fail := func(err error) (*CompactIndex, error) {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	magic := cr.bytes(4)
	if cr.err != nil {
		return fail(cr.err)
	}
	if string(magic) != serializeMagic {
		return fail(fmt.Errorf("bad magic %q", magic))
	}
	version := cr.u16()
	if cr.err == nil && (version < 1 || version > serializeVersionLegacy) {
		return fail(fmt.Errorf("unsupported version %d", version))
	}
	letters := cr.byteSlice("alphabet")
	if cr.err != nil {
		return fail(cr.err)
	}
	if len(letters) == 0 || len(letters) > 255 {
		return fail(fmt.Errorf("alphabet size %d out of range", len(letters)))
	}
	seen := [256]bool{}
	for _, l := range letters {
		if seen[l] {
			return fail(fmt.Errorf("alphabet letter %q duplicated", l))
		}
		seen[l] = true
		if other := otherCaseByte(l); other != l && seen[other] {
			return fail(fmt.Errorf("alphabet letters %q/%q collide after case folding", l, other))
		}
	}
	alpha := seq.NewAlphabet(letters)

	n := cr.u32()
	bits := cr.u8()
	codes := cr.byteSlice("packed codes")
	if cr.err != nil {
		return fail(cr.err)
	}
	if uint32(len(codes)) != n {
		return fail(fmt.Errorf("code count %d != n %d", len(codes), n))
	}
	packed, err := seq.NewPacked(codes, uint(bits))
	if err != nil {
		return fail(err)
	}

	c := &CompactIndex{
		alpha:       alpha,
		chars:       packed,
		n:           int32(n),
		lelOverflow: make(map[int32]int32),
		ptOverflow:  make(map[uint64]int32),
		extOverflow: make(map[int32][2]int32),
	}
	c.lel = cr.u16s("lel")
	c.ref = cr.u32s("ref")
	for shape := 1; shape < numShapes; shape++ {
		tb := &c.tables[shape]
		tb.ribs = shape >> 1
		tb.hasExt = shape&1 == 1
		tb.ld = cr.u32s("ld")
		tb.ribRD = cr.u32s("ribRD")
		tb.ribPT = cr.u16s("ribPT")
		tb.ribCL = cr.byteSlice("ribCL")
		tb.extRD = cr.u32s("extRD")
		tb.extPT = cr.u16s("extPT")
		tb.extPRT = cr.u16s("extPRT")
		tb.extSrc = cr.u32s("extSrc")
	}
	sp := &c.spill
	sp.ld = cr.u32s("spill ld")
	sp.start = cr.u32s("spill start")
	sp.ribRD = cr.u32s("spill ribRD")
	sp.ribPT = cr.u16s("spill ribPT")
	sp.ribCL = cr.byteSlice("spill ribCL")
	sp.extRD = cr.u32s("spill extRD")
	sp.extPT = cr.u16s("spill extPT")
	sp.extPRT = cr.u16s("spill extPRT")
	sp.extSrc = cr.u32s("spill extSrc")

	nLel := cr.lenCapped(maxReasonable, "lel overflow")
	for i := 0; i < nLel && cr.err == nil; i++ {
		k, v := cr.u32(), cr.u32()
		c.lelOverflow[int32(k)] = int32(v)
	}
	nPT := cr.lenCapped(maxReasonable, "pt overflow")
	for i := 0; i < nPT && cr.err == nil; i++ {
		k, v := cr.u64(), cr.u32()
		c.ptOverflow[k] = int32(v)
	}
	nExt := cr.lenCapped(maxReasonable, "ext overflow")
	for i := 0; i < nExt && cr.err == nil; i++ {
		k, v0, v1 := cr.u32(), cr.u32(), cr.u32()
		c.extOverflow[int32(k)] = [2]int32{int32(v0), int32(v1)}
	}
	if version >= 2 {
		nBlocks := cr.lenCapped(maxReasonable, "skip blocks")
		if cr.err == nil {
			c.blocks = make([]blockMeta, 0, nBlocks)
			for i := 0; i < nBlocks && cr.err == nil; i++ {
				maxLEL, minLink, maxLink := cr.u32(), cr.u32(), cr.u32()
				c.blocks = append(c.blocks, blockMeta{
					maxLEL:  int32(maxLEL),
					minLink: int32(minLink),
					maxLink: int32(maxLink),
				})
			}
		}
	}
	if cr.err != nil {
		return fail(cr.err)
	}

	wantSum := cr.sum.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(cr.r, trailer[:]); err != nil {
		return fail(fmt.Errorf("missing checksum: %w", err))
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != wantSum {
		return fail(fmt.Errorf("checksum mismatch: file %08x, computed %08x", got, wantSum))
	}
	if version < 2 {
		// Pre-block formats carry no skip index; rebuild it from the link
		// table so loaded indexes accelerate identically to frozen ones.
		c.blocks = buildBlocksOn(c)
	}
	c.deriveScanState()
	if err := c.validate(); err != nil {
		return fail(err)
	}
	if err := c.validateRefs(); err != nil {
		return fail(err)
	}
	return c, nil
}

func otherCaseByte(b byte) byte {
	switch {
	case b >= 'a' && b <= 'z':
		return b - ('a' - 'A')
	case b >= 'A' && b <= 'Z':
		return b + ('a' - 'A')
	}
	return b
}

// validate cross-checks structural consistency after a load.
func (c *CompactIndex) validate() error {
	if len(c.lel) != int(c.n)+1 || len(c.ref) != int(c.n)+1 {
		return fmt.Errorf("LT sizes (%d, %d) inconsistent with n=%d", len(c.lel), len(c.ref), c.n)
	}
	if len(c.blocks) != blocksFor(int(c.n)) {
		return fmt.Errorf("skip index has %d blocks for n=%d (want %d)", len(c.blocks), c.n, blocksFor(int(c.n)))
	}
	if len(c.blockLEL) != (len(c.blocks)+3)/4 {
		return fmt.Errorf("packed admission lanes cover %d words for %d blocks (want %d)", len(c.blockLEL), len(c.blocks), (len(c.blocks)+3)/4)
	}
	if len(c.spill.ld) == 0 {
		if len(c.ldTabs[0]) != 1 {
			return fmt.Errorf("probe link rows: slot 0 is not the one-row dummy of an empty spill table")
		}
	} else if !sameU32s(c.ldTabs[0], c.spill.ld) {
		return fmt.Errorf("probe link rows: slot 0 does not alias the spill table")
	}
	for shape := 1; shape < numShapes; shape++ {
		tb := &c.tables[shape]
		if !sameU32s(c.ldTabs[shape], tb.ld) {
			return fmt.Errorf("probe link rows: slot %d does not alias its rib table", shape)
		}
		rows := len(tb.ld)
		if len(tb.ribRD) != rows*tb.ribs || len(tb.ribPT) != rows*tb.ribs || len(tb.ribCL) != rows*tb.ribs {
			return fmt.Errorf("shape %d rib arrays inconsistent", shape)
		}
		extRows := 0
		if tb.hasExt {
			extRows = rows
		}
		if len(tb.extRD) != extRows || len(tb.extPT) != extRows || len(tb.extPRT) != extRows || len(tb.extSrc) != extRows {
			return fmt.Errorf("shape %d extrib arrays inconsistent", shape)
		}
	}
	sp := &c.spill
	if len(sp.start) != len(sp.ld)+1 {
		return fmt.Errorf("spill CSR offsets inconsistent")
	}
	if len(sp.start) > 0 && int(sp.start[len(sp.start)-1]) != len(sp.ribRD) {
		return fmt.Errorf("spill CSR tail inconsistent")
	}
	return nil
}

// sameU32s reports whether a and b are the same slice, not equal copies.
func sameU32s(a, b []uint32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// validateRefs walks every node's link reference and bounds-checks its
// table row — O(n) work that touches the whole ref section, so the
// zero-copy lazy open (which promises a page-cache-cold open in
// milliseconds) defers it to the Verify option while the deserializing
// and fallback loaders always run it.
func (c *CompactIndex) validateRefs() error {
	sp := &c.spill
	for i := int32(0); i <= c.n; i++ {
		ref := c.ref[i]
		if ref&refTag == 0 {
			if ref > uint32(c.n) {
				return fmt.Errorf("node %d: link destination %d beyond backbone", i, ref)
			}
			continue
		}
		shape := (ref >> refShapeShift) & 7
		row := ref & refRowMask
		if shape == 0 {
			if int(row) >= len(sp.ld) {
				return fmt.Errorf("node %d: spill row %d out of range", i, row)
			}
		} else if int(row) >= len(c.tables[shape].ld) {
			return fmt.Errorf("node %d: shape %d row %d out of range", i, shape, row)
		}
	}
	return nil
}
