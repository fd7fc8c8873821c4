package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"unsafe"

	"github.com/spine-index/spine/internal/seq"
)

// Version-3 compact files trade the v2 byte stream for a section
// directory so the big tables can be used straight out of a memory
// mapping, without deserialization:
//
//	fixed header (24 B):
//	  magic "SPNE" | version u16 = 3 | flags u16 = 0 |
//	  fileSize u64 | n u32 | bits u8 | alphaLen u8 | reserved u16
//	alphabet letters (alphaLen B)
//	section count u32 = 72
//	72 x directory entry: off u64 | len u64 | crc32 u32
//	header crc32 (IEEE, over every header byte before it)
//	zero padding to 8
//	72 x section payload, each starting 8-byte aligned, zero padded
//
// Sections appear in one canonical order (chars, lel, ref, the seven
// shape tables, the spill table, the three overflow maps, the skip
// blocks) and hold raw little-endian element arrays, so on a
// little-endian host an 8-byte-aligned image can alias every array
// in place. fileSize pins the exact image length: truncation and
// trailing garbage are both structural errors, and the directory walk
// rejects unordered, overlapping, misaligned, or out-of-range
// sections before a single payload byte is touched. The section CRCs
// and the padding-is-zero rule together cover every byte of the file,
// so full verification (ReadCompact) still rejects any single-bit
// flip; mapped opens may skip payload CRCs to stay lazy.
const (
	v3HeaderFixed  = 24
	v3DirEntrySize = 20
	v3SectionCount = 72

	// maxV3FileSize bounds the up-front allocation a lying header can
	// force on the io.ReaderAt open path.
	maxV3FileSize = int64(1) << 38
)

// v3SecDesc names one canonical section and its element width.
type v3SecDesc struct {
	name string
	elem int
}

// v3Layout is the canonical section order; writer and reader both walk
// it, so the directory needs no per-section type tags.
var v3Layout = buildV3Layout()

func buildV3Layout() []v3SecDesc {
	descs := make([]v3SecDesc, 0, v3SectionCount)
	add := func(name string, elem int) {
		descs = append(descs, v3SecDesc{name: name, elem: elem})
	}
	add("chars", 8)
	add("lel", 2)
	add("ref", 4)
	table := func(prefix string, withStart bool) {
		add(prefix+"ld", 4)
		if withStart {
			add(prefix+"start", 4)
		}
		add(prefix+"ribRD", 4)
		add(prefix+"ribPT", 2)
		add(prefix+"ribCL", 1)
		add(prefix+"extRD", 4)
		add(prefix+"extPT", 2)
		add(prefix+"extPRT", 2)
		add(prefix+"extSrc", 4)
	}
	for shape := 1; shape < numShapes; shape++ {
		table(fmt.Sprintf("shape%d.", shape), false)
	}
	table("spill.", true)
	add("lelOverflow", 8)
	add("ptOverflow", 12)
	add("extOverflow", 12)
	add("blocks", 12)
	if len(descs) != v3SectionCount {
		panic("core: v3 layout section count drifted")
	}
	return descs
}

// v3Enc encodes one section: count elements written by enc into a
// buffer of exactly count*elem bytes. Encoders must be deterministic —
// Save runs each twice (checksum pass, write pass).
type v3Enc struct {
	count int
	enc   func(dst []byte)
}

func encU16s(vs []uint16) v3Enc {
	return v3Enc{count: len(vs), enc: func(dst []byte) {
		for i, v := range vs {
			binary.LittleEndian.PutUint16(dst[i*2:], v)
		}
	}}
}

func encU32s(vs []uint32) v3Enc {
	return v3Enc{count: len(vs), enc: func(dst []byte) {
		for i, v := range vs {
			binary.LittleEndian.PutUint32(dst[i*4:], v)
		}
	}}
}

func encU64s(vs []uint64) v3Enc {
	return v3Enc{count: len(vs), enc: func(dst []byte) {
		for i, v := range vs {
			binary.LittleEndian.PutUint64(dst[i*8:], v)
		}
	}}
}

func encBytes(vs []byte) v3Enc {
	return v3Enc{count: len(vs), enc: func(dst []byte) { copy(dst, vs) }}
}

// v3Encoders returns one encoder per v3Layout entry, in order.
func (c *CompactIndex) v3Encoders() []v3Enc {
	encs := make([]v3Enc, 0, v3SectionCount)
	encs = append(encs, encU64s(c.chars.Words()), encU16s(c.lel), encU32s(c.ref))
	table := func(ld, ribRD []uint32, start []uint32, ribPT []uint16, ribCL []byte,
		extRD []uint32, extPT, extPRT []uint16, extSrc []uint32) {
		encs = append(encs, encU32s(ld))
		if start != nil {
			encs = append(encs, encU32s(start))
		}
		encs = append(encs, encU32s(ribRD), encU16s(ribPT), encBytes(ribCL),
			encU32s(extRD), encU16s(extPT), encU16s(extPRT), encU32s(extSrc))
	}
	for shape := 1; shape < numShapes; shape++ {
		tb := &c.tables[shape]
		table(tb.ld, tb.ribRD, nil, tb.ribPT, tb.ribCL, tb.extRD, tb.extPT, tb.extPRT, tb.extSrc)
	}
	sp := &c.spill
	table(sp.ld, sp.ribRD, sp.start, sp.ribPT, sp.ribCL, sp.extRD, sp.extPT, sp.extPRT, sp.extSrc)

	// Map sections are sorted by key so encoding is deterministic and
	// saved files are byte-reproducible.
	lelKeys := make([]int32, 0, len(c.lelOverflow))
	for k := range c.lelOverflow {
		lelKeys = append(lelKeys, k)
	}
	sort.Slice(lelKeys, func(i, j int) bool { return lelKeys[i] < lelKeys[j] })
	encs = append(encs, v3Enc{count: len(lelKeys), enc: func(dst []byte) {
		for i, k := range lelKeys {
			binary.LittleEndian.PutUint32(dst[i*8:], uint32(k))
			binary.LittleEndian.PutUint32(dst[i*8+4:], uint32(c.lelOverflow[k]))
		}
	}})
	ptKeys := make([]uint64, 0, len(c.ptOverflow))
	for k := range c.ptOverflow {
		ptKeys = append(ptKeys, k)
	}
	sort.Slice(ptKeys, func(i, j int) bool { return ptKeys[i] < ptKeys[j] })
	encs = append(encs, v3Enc{count: len(ptKeys), enc: func(dst []byte) {
		for i, k := range ptKeys {
			binary.LittleEndian.PutUint64(dst[i*12:], k)
			binary.LittleEndian.PutUint32(dst[i*12+8:], uint32(c.ptOverflow[k]))
		}
	}})
	extKeys := make([]int32, 0, len(c.extOverflow))
	for k := range c.extOverflow {
		extKeys = append(extKeys, k)
	}
	sort.Slice(extKeys, func(i, j int) bool { return extKeys[i] < extKeys[j] })
	encs = append(encs, v3Enc{count: len(extKeys), enc: func(dst []byte) {
		for i, k := range extKeys {
			v := c.extOverflow[k]
			binary.LittleEndian.PutUint32(dst[i*12:], uint32(k))
			binary.LittleEndian.PutUint32(dst[i*12+4:], uint32(v[0]))
			binary.LittleEndian.PutUint32(dst[i*12+8:], uint32(v[1]))
		}
	}})
	encs = append(encs, v3Enc{count: len(c.blocks), enc: func(dst []byte) {
		for i, bm := range c.blocks {
			binary.LittleEndian.PutUint32(dst[i*12:], uint32(bm.maxLEL))
			binary.LittleEndian.PutUint32(dst[i*12+4:], uint32(bm.minLink))
			binary.LittleEndian.PutUint32(dst[i*12+8:], uint32(bm.maxLink))
		}
	}})
	return encs
}

func align8(v int64) int64 { return (v + 7) &^ 7 }

// Save serializes the compact index in the version-3 section-directory
// layout; sizes are available via SizeBytes. The large tables are
// written as raw little-endian arrays, so the file can later be opened
// zero-copy (OpenCompactBytes / OpenCompactAt) as well as fully
// deserialized (ReadCompact).
func (c *CompactIndex) Save(w io.Writer) error {
	encs := c.v3Encoders()
	letters := make([]byte, c.alpha.Size())
	for i := range letters {
		letters[i] = c.alpha.Letter(i)
	}
	if len(letters) == 0 || len(letters) > 255 {
		return fmt.Errorf("core: serializing index: alphabet size %d out of range", len(letters))
	}

	headerLen := int64(v3HeaderFixed + len(letters) + 4 + v3SectionCount*v3DirEntrySize + 4)
	dataStart := align8(headerLen)
	offs := make([]int64, len(encs))
	lens := make([]int64, len(encs))
	var maxLen int64
	off := dataStart
	for i, e := range encs {
		offs[i] = off
		lens[i] = int64(e.count) * int64(v3Layout[i].elem)
		if lens[i] > maxLen {
			maxLen = lens[i]
		}
		off = align8(off + lens[i])
	}
	fileSize := off

	// Pass 1: encode each section once into a reusable scratch buffer to
	// compute its checksum, so the whole image never needs to be resident.
	scratch := make([]byte, maxLen)
	crcs := make([]uint32, len(encs))
	for i, e := range encs {
		b := scratch[:lens[i]]
		e.enc(b)
		crcs[i] = crc32.ChecksumIEEE(b)
	}

	hdr := make([]byte, dataStart) // trailing pad bytes stay zero
	copy(hdr[0:4], serializeMagic)
	binary.LittleEndian.PutUint16(hdr[4:], serializeVersion)
	binary.LittleEndian.PutUint16(hdr[6:], 0) // flags
	binary.LittleEndian.PutUint64(hdr[8:], uint64(fileSize))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(c.n))
	hdr[20] = uint8(c.chars.Bits())
	hdr[21] = uint8(len(letters))
	p := v3HeaderFixed
	p += copy(hdr[p:], letters)
	binary.LittleEndian.PutUint32(hdr[p:], v3SectionCount)
	p += 4
	for i := range encs {
		binary.LittleEndian.PutUint64(hdr[p:], uint64(offs[i]))
		binary.LittleEndian.PutUint64(hdr[p+8:], uint64(lens[i]))
		binary.LittleEndian.PutUint32(hdr[p+16:], crcs[i])
		p += v3DirEntrySize
	}
	binary.LittleEndian.PutUint32(hdr[p:], crc32.ChecksumIEEE(hdr[:p]))

	bw := bufio.NewWriter(w)
	var pad [8]byte
	werr := func(err error) error { return fmt.Errorf("core: serializing index: %w", err) }
	if _, err := bw.Write(hdr); err != nil {
		return werr(err)
	}
	for i, e := range encs {
		b := scratch[:lens[i]]
		e.enc(b) // pass 2: deterministic re-encode for the actual write
		if _, err := bw.Write(b); err != nil {
			return werr(err)
		}
		if gap := align8(offs[i]+lens[i]) - (offs[i] + lens[i]); gap > 0 {
			if _, err := bw.Write(pad[:gap]); err != nil {
				return werr(err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return werr(err)
	}
	return nil
}

// Extent is a byte range inside a serialized compact file.
type Extent struct {
	Off int64
	Len int64
}

// CompactLayout reports where the major table groups of a version-3
// compact file live. Disk-backed opens use it to steer access-pattern
// hints (the descent tables are random-access, the backbone rows are
// scanned sequentially) and to warm the hot top of the Link Table.
type CompactLayout struct {
	// FileSize is the total image length in bytes.
	FileSize int64
	// Chars spans the bit-packed character words.
	Chars Extent
	// LEL spans the squeezed 2-byte numeric-edge-label row.
	LEL Extent
	// Ref spans the packed link/rib-reference row.
	Ref Extent
	// Tables spans the per-shape rib/extrib tables and the spill CSR.
	Tables Extent
	// Overflow spans the three overflow maps.
	Overflow Extent
	// Blocks spans the block-max skip metadata.
	Blocks Extent
}

type v3Entry struct {
	off int64
	len int64
	crc uint32
}

// v3Image is a parsed, bounds-checked v3 file image; section payloads
// are consumed in canonical order via take.
type v3Image struct {
	data    []byte
	entries []v3Entry
	alias   bool // little-endian host and 8-aligned base: alias in place
	next    int
	err     error
}

func (im *v3Image) take(elem int) []byte {
	if im.err != nil {
		return nil
	}
	i := im.next
	im.next++
	desc := v3Layout[i]
	if desc.elem != elem {
		panic("core: v3 section order drifted between reader and layout")
	}
	e := im.entries[i]
	if e.len%int64(elem) != 0 {
		im.err = fmt.Errorf("section %s length %d not a multiple of element size %d", desc.name, e.len, elem)
		return nil
	}
	return im.data[e.off : e.off+e.len : e.off+e.len]
}

func (im *v3Image) u16s() []uint16 {
	b := im.take(2)
	if len(b) == 0 {
		return nil
	}
	if im.alias {
		return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), len(b)/2)
	}
	out := make([]uint16, len(b)/2)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[i*2:])
	}
	return out
}

func (im *v3Image) u32s() []uint32 {
	b := im.take(4)
	if len(b) == 0 {
		return nil
	}
	if im.alias {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func (im *v3Image) u64s() []uint64 {
	b := im.take(8)
	if len(b) == 0 {
		return nil
	}
	if im.alias {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func (im *v3Image) byteSec() []byte { return im.take(1) }

func (im *v3Image) blockMetas() []blockMeta {
	b := im.take(12)
	if len(b) == 0 {
		return nil
	}
	// blockMeta is three int32s; alias only if the compiler lays it out
	// with no padding (it does on every supported target — the check is
	// a guard, not a branch we expect to take).
	if im.alias && unsafe.Sizeof(blockMeta{}) == 12 {
		return unsafe.Slice((*blockMeta)(unsafe.Pointer(&b[0])), len(b)/12)
	}
	out := make([]blockMeta, len(b)/12)
	for i := range out {
		out[i] = blockMeta{
			maxLEL:  int32(binary.LittleEndian.Uint32(b[i*12:])),
			minLink: int32(binary.LittleEndian.Uint32(b[i*12+4:])),
			maxLink: int32(binary.LittleEndian.Uint32(b[i*12+8:])),
		}
	}
	return out
}

// hostLittleEndian reports whether native integer byte order matches the
// file's little-endian encoding, the precondition for aliasing.
func hostLittleEndian() bool {
	probe := uint16(0x00FF)
	return *(*byte)(unsafe.Pointer(&probe)) == 0xFF
}

// openCompactBytes opens a version-3 image in place. Structural checks
// (magic, version, file size, header checksum, directory sanity,
// alphabet, cross-table consistency) always run; verify additionally
// checks every section checksum, that all padding is zero — which
// together cover each byte of the image — and bounds-checks every
// node's link reference (the one O(n) pass; see validateRefs). Without
// verify the open cost is O(sections). On little-endian hosts with an
// 8-byte-aligned base the returned index aliases data directly — the
// caller keeps data alive and immutable for the index's lifetime.
func openCompactBytes(data []byte, verify bool) (*CompactIndex, *CompactLayout, error) {
	fail := func(format string, args ...any) (*CompactIndex, *CompactLayout, error) {
		return nil, nil, fmt.Errorf("core: opening compact image: "+format, args...)
	}
	if len(data) < v3HeaderFixed {
		return fail("short header: %d bytes", len(data))
	}
	if string(data[0:4]) != serializeMagic {
		return fail("bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != serializeVersion {
		return fail("unsupported version %d", v)
	}
	if flags := binary.LittleEndian.Uint16(data[6:8]); flags != 0 {
		return fail("unknown flags %#x", flags)
	}
	fileSize := binary.LittleEndian.Uint64(data[8:16])
	if fileSize != uint64(len(data)) {
		return fail("file size %d != image length %d (truncated or trailing garbage)", fileSize, len(data))
	}
	n := binary.LittleEndian.Uint32(data[16:20])
	if n > maxReasonable {
		return fail("implausible node count %d", n)
	}
	bits := data[20]
	alphaLen := int(data[21])
	headerLen := int64(v3HeaderFixed + alphaLen + 4 + v3SectionCount*v3DirEntrySize + 4)
	if headerLen > int64(len(data)) {
		return fail("header overruns %d-byte image", len(data))
	}
	crcOff := headerLen - 4
	if got, want := binary.LittleEndian.Uint32(data[crcOff:]), crc32.ChecksumIEEE(data[:crcOff]); got != want {
		return fail("header checksum mismatch: file %08x, computed %08x", got, want)
	}
	// Header integrity established; validate the alphabet.
	letters := data[v3HeaderFixed : v3HeaderFixed+alphaLen]
	if len(letters) == 0 {
		return fail("alphabet size 0 out of range")
	}
	seen := [256]bool{}
	for _, l := range letters {
		if seen[l] {
			return fail("alphabet letter %q duplicated", l)
		}
		seen[l] = true
		if other := otherCaseByte(l); other != l && seen[other] {
			return fail("alphabet letters %q/%q collide after case folding", l, other)
		}
	}
	if secCount := binary.LittleEndian.Uint32(data[v3HeaderFixed+alphaLen:]); secCount != v3SectionCount {
		return fail("section count %d (want %d)", secCount, v3SectionCount)
	}

	dataStart := align8(headerLen)
	entries := make([]v3Entry, v3SectionCount)
	dirOff := int64(v3HeaderFixed + alphaLen + 4)
	cursor := dataStart
	for i := range entries {
		off := binary.LittleEndian.Uint64(data[dirOff:])
		length := binary.LittleEndian.Uint64(data[dirOff+8:])
		crc := binary.LittleEndian.Uint32(data[dirOff+16:])
		dirOff += v3DirEntrySize
		if off%8 != 0 {
			return fail("section %s offset %d misaligned", v3Layout[i].name, off)
		}
		if off > fileSize || length > fileSize-off {
			return fail("section %s [%d,+%d) overruns %d-byte image", v3Layout[i].name, off, length, fileSize)
		}
		if int64(off) < cursor {
			return fail("section %s [%d,+%d) overlaps previous section or header", v3Layout[i].name, off, length)
		}
		if verify {
			// Inter-section gaps are outside every checksum; full
			// verification insists they are all-zero padding so no byte
			// of the image escapes scrutiny.
			for _, b := range data[cursor:off] {
				if b != 0 {
					return fail("nonzero padding before section %s", v3Layout[i].name)
				}
			}
			if got := crc32.ChecksumIEEE(data[off : int64(off)+int64(length)]); got != crc {
				return fail("section %s checksum mismatch: file %08x, computed %08x", v3Layout[i].name, crc, got)
			}
		}
		entries[i] = v3Entry{off: int64(off), len: int64(length), crc: crc}
		cursor = int64(off) + int64(length)
	}
	if verify {
		for _, b := range data[cursor:] {
			if b != 0 {
				return fail("nonzero padding after last section")
			}
		}
	}

	im := &v3Image{
		data:    data,
		entries: entries,
		alias:   hostLittleEndian() && uintptr(unsafe.Pointer(&data[0]))%8 == 0,
	}
	c := &CompactIndex{
		alpha:       seq.NewAlphabet(letters),
		n:           int32(n),
		lelOverflow: make(map[int32]int32),
		ptOverflow:  make(map[uint64]int32),
		extOverflow: make(map[int32][2]int32),
	}
	words := im.u64s()
	c.lel = im.u16s()
	c.ref = im.u32s()
	for shape := 1; shape < numShapes; shape++ {
		tb := &c.tables[shape]
		tb.ribs = shape >> 1
		tb.hasExt = shape&1 == 1
		tb.ld = im.u32s()
		tb.ribRD = im.u32s()
		tb.ribPT = im.u16s()
		tb.ribCL = im.byteSec()
		tb.extRD = im.u32s()
		tb.extPT = im.u16s()
		tb.extPRT = im.u16s()
		tb.extSrc = im.u32s()
	}
	sp := &c.spill
	sp.ld = im.u32s()
	sp.start = im.u32s()
	sp.ribRD = im.u32s()
	sp.ribPT = im.u16s()
	sp.ribCL = im.byteSec()
	sp.extRD = im.u32s()
	sp.extPT = im.u16s()
	sp.extPRT = im.u16s()
	sp.extSrc = im.u32s()
	// Overflow maps are tiny (§5 keeps overflow rare by construction);
	// they always decode onto the heap.
	lelOvf := im.take(8)
	ptOvf := im.take(12)
	extOvf := im.take(12)
	c.blocks = im.blockMetas()
	if im.err != nil {
		return fail("%v", im.err)
	}
	for i := 0; i < len(lelOvf); i += 8 {
		k := int32(binary.LittleEndian.Uint32(lelOvf[i:]))
		c.lelOverflow[k] = int32(binary.LittleEndian.Uint32(lelOvf[i+4:]))
	}
	for i := 0; i < len(ptOvf); i += 12 {
		k := binary.LittleEndian.Uint64(ptOvf[i:])
		c.ptOverflow[k] = int32(binary.LittleEndian.Uint32(ptOvf[i+8:]))
	}
	for i := 0; i < len(extOvf); i += 12 {
		k := int32(binary.LittleEndian.Uint32(extOvf[i:]))
		c.extOverflow[k] = [2]int32{
			int32(binary.LittleEndian.Uint32(extOvf[i+4:])),
			int32(binary.LittleEndian.Uint32(extOvf[i+8:])),
		}
	}
	packed, err := seq.FromWords(words, int(n), uint(bits))
	if err != nil {
		return fail("%v", err)
	}
	c.chars = packed
	c.deriveScanState()
	if err := c.validate(); err != nil {
		return fail("%v", err)
	}
	// Per-node link validation reads the entire ref section — the one
	// O(n) pass the lazy open must not pay. Verified opens (and the
	// deserializing loaders, which call validateRefs themselves) keep
	// it; a lazy open trusts the image the way any zero-copy mapping
	// must, and the Verify option exists for untrusted files.
	if verify {
		if err := c.validateRefs(); err != nil {
			return fail("%v", err)
		}
	}

	span := func(first, last int) Extent {
		return Extent{Off: entries[first].off, Len: entries[last].off + entries[last].len - entries[first].off}
	}
	layout := &CompactLayout{
		FileSize: int64(fileSize),
		Chars:    span(0, 0),
		LEL:      span(1, 1),
		Ref:      span(2, 2),
		Tables:   span(3, 3+7*8+9-1),
		Overflow: span(3+7*8+9, 3+7*8+9+2),
		Blocks:   span(v3SectionCount-1, v3SectionCount-1),
	}
	return c, layout, nil
}

// CanOpenZeroCopy reports whether data begins a compact image in the
// section-directory format, i.e. whether OpenCompactBytes /
// OpenCompactAt can open it in place. Legacy stream versions return
// false and must go through ReadCompact.
func CanOpenZeroCopy(data []byte) bool {
	return len(data) >= 6 && string(data[:4]) == serializeMagic &&
		binary.LittleEndian.Uint16(data[4:6]) == serializeVersion
}

// OpenCompactBytes opens a version-3 compact image in place, returning
// the index and its section layout. On little-endian hosts with an
// 8-byte-aligned base the index aliases data zero-copy: the caller must
// keep data alive and unmodified (e.g. an mmap'd file) for the index's
// lifetime. verify additionally checks every section checksum, the
// zero padding and every node's link reference; header and
// cross-section structural bounds are always enforced.
func OpenCompactBytes(data []byte, verify bool) (*CompactIndex, *CompactLayout, error) {
	return openCompactBytes(data, verify)
}

// OpenCompactAt opens a version-3 compact file through an io.ReaderAt,
// the portable fallback when memory mapping is unavailable. The whole
// image is read into one 8-byte-aligned buffer and fully verified, and
// the returned index aliases that buffer.
func OpenCompactAt(r io.ReaderAt) (*CompactIndex, *CompactLayout, error) {
	fail := func(format string, args ...any) (*CompactIndex, *CompactLayout, error) {
		return nil, nil, fmt.Errorf("core: opening compact image: "+format, args...)
	}
	var hdr [v3HeaderFixed]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return fail("short header: %v", err)
	}
	if string(hdr[0:4]) != serializeMagic {
		return fail("bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != serializeVersion {
		return fail("unsupported version %d", v)
	}
	fileSize := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	if fileSize < v3HeaderFixed || fileSize > maxV3FileSize {
		return fail("implausible file size %d", fileSize)
	}
	if fileSize%8 != 0 {
		return fail("file size %d not 8-byte aligned", fileSize)
	}
	words := make([]uint64, fileSize/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), fileSize)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return fail("reading image: %v", err)
	}
	return openCompactBytes(buf, true)
}

// aligned8 returns data backed by an 8-byte-aligned allocation, copying
// only when the original base is misaligned.
func aligned8(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return data
	}
	words := make([]uint64, (len(data)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)[:len(data)]
	copy(buf, data)
	return buf
}
