package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"hash"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/spine-index/spine/internal/seq"
	"github.com/spine-index/spine/internal/suffixtree"
)

// saveV3 serializes c with the current writer.
func saveV3(t *testing.T, c *CompactIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// v3HeaderGeometry locates the parts of a v3 image the corruption tests
// tamper with: the directory entries and the header checksum.
func v3HeaderGeometry(data []byte) (dirOff, crcOff, dataStart int64) {
	alphaLen := int64(data[21])
	dirOff = v3HeaderFixed + alphaLen + 4
	headerLen := dirOff + v3SectionCount*v3DirEntrySize + 4
	return dirOff, headerLen - 4, align8(headerLen)
}

// fixHeaderCRC recomputes the header checksum after a deliberate header
// edit, so the structural validation under test — not the checksum — is
// what rejects the image.
func fixHeaderCRC(data []byte) {
	_, crcOff, _ := v3HeaderGeometry(data)
	binary.LittleEndian.PutUint32(data[crcOff:], crc32.ChecksumIEEE(data[:crcOff]))
}

// openAllPaths drives every v3 open path over one image, asserting none
// of them panics, and reports whether each accepted it.
func openAllPaths(t *testing.T, data []byte) (readOK, bytesOK, atOK bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("open path panicked: %v", r)
		}
	}()
	if _, err := ReadCompact(bytes.NewReader(data)); err == nil {
		readOK = true
	}
	if _, _, err := OpenCompactBytes(aligned8(append([]byte(nil), data...)), true); err == nil {
		bytesOK = true
	}
	if _, _, err := OpenCompactAt(bytes.NewReader(data)); err == nil {
		atOK = true
	}
	return readOK, bytesOK, atOK
}

func TestV3RejectsCorruptSectionDirectory(t *testing.T) {
	c := mustFreeze(t, []byte("aaccacaacaggtaccaaccacaaca"), seq.DNA)
	full := saveV3(t, c)
	dirOff, _, dataStart := v3HeaderGeometry(full)
	entryOff := func(data []byte, i int) []byte { return data[dirOff+int64(i)*v3DirEntrySize:] }

	cases := []struct {
		name   string
		tamper func(data []byte)
	}{
		{"misaligned offset", func(data []byte) {
			e := entryOff(data, 0)
			binary.LittleEndian.PutUint64(e, binary.LittleEndian.Uint64(e)+1)
		}},
		{"offset before data start", func(data []byte) {
			binary.LittleEndian.PutUint64(entryOff(data, 0), uint64(dataStart-8))
		}},
		{"offset past end of file", func(data []byte) {
			binary.LittleEndian.PutUint64(entryOff(data, 0), uint64(len(data))+64)
		}},
		{"length past end of file", func(data []byte) {
			binary.LittleEndian.PutUint64(entryOff(data, 0)[8:], uint64(len(data)))
		}},
		{"overlapping sections", func(data []byte) {
			// Point section 1 at section 0's bytes: same offset, same CRC
			// as declared, but the directory must be strictly ascending.
			e0, e1 := entryOff(data, 0), entryOff(data, 1)
			copy(e1[:16], e0[:16])
		}},
		{"huge fileSize", func(data []byte) {
			binary.LittleEndian.PutUint64(data[8:], uint64(maxV3FileSize)+8)
		}},
		{"tiny fileSize", func(data []byte) {
			binary.LittleEndian.PutUint64(data[8:], uint64(v3HeaderFixed))
		}},
		{"zero section count", func(data []byte) {
			binary.LittleEndian.PutUint32(data[v3HeaderFixed+int(data[21]):], 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corrupt := append([]byte(nil), full...)
			tc.tamper(corrupt)
			fixHeaderCRC(corrupt)
			if r, b, a := openAllPaths(t, corrupt); r || b || a {
				t.Fatalf("corrupt image accepted (ReadCompact=%v bytes=%v readerAt=%v)", r, b, a)
			}
		})
	}
}

func TestV3RejectsTruncationEverywhere(t *testing.T) {
	c := mustFreeze(t, []byte("aaccacaacaggtacca"), seq.DNA)
	full := saveV3(t, c)
	cuts := []int{0, 1, 5, v3HeaderFixed - 1, v3HeaderFixed, len(full) / 4, len(full) / 2, len(full) - 8, len(full) - 1}
	for _, cut := range cuts {
		if r, b, a := openAllPaths(t, full[:cut]); r || b || a {
			t.Fatalf("truncation at %d accepted (ReadCompact=%v bytes=%v readerAt=%v)", cut, r, b, a)
		}
	}
}

func TestV3TrailingGarbage(t *testing.T) {
	c := mustFreeze(t, []byte("aaccacaacaggtacca"), seq.DNA)
	full := saveV3(t, c)
	glued := append(append([]byte(nil), full...), []byte("GARBAGEgarbage!!")...)
	// The whole-stream paths see a length that disagrees with the
	// header's fileSize and must reject. OpenCompactAt reads exactly
	// fileSize bytes from the ReaderAt, so the intact prefix may open —
	// but it must never read past fileSize or panic.
	readOK, bytesOK, atOK := openAllPaths(t, glued)
	if readOK || bytesOK {
		t.Fatalf("trailing garbage accepted by a whole-stream path (ReadCompact=%v bytes=%v)", readOK, bytesOK)
	}
	if atOK {
		back, _, err := OpenCompactAt(bytes.NewReader(glued))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := back.FindAll([]byte("acca")), c.FindAll([]byte("acca")); !equalInts(got, want) {
			t.Fatalf("ReaderAt open over garbage tail answered %v, want %v", got, want)
		}
	}
}

func TestV3SectionBitFlipsRejectedVerified(t *testing.T) {
	c := mustFreeze(t, []byte("aaccacaacaggtacca"), seq.DNA)
	full := saveV3(t, c)
	_, _, dataStart := v3HeaderGeometry(full)
	rng := rand.New(rand.NewSource(143))
	const trials = 40
	for i := 0; i < trials; i++ {
		corrupt := append([]byte(nil), full...)
		pos := int(dataStart) + rng.Intn(len(corrupt)-int(dataStart))
		corrupt[pos] ^= 1 << uint(rng.Intn(8))
		if _, _, err := OpenCompactBytes(aligned8(corrupt), true); err == nil {
			t.Fatalf("payload bit flip at %d accepted under verify", pos)
		}
		// The lazy open skips section checksums by design; it must still
		// never panic on the damaged payload.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("lazy open panicked on bit flip at %d: %v", pos, r)
				}
			}()
			OpenCompactBytes(aligned8(corrupt), false)
		}()
	}
}

func TestOpenCompactAtMatchesReadCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	text := randomRepetitive(rng, []byte("acgt"), 800)
	c := mustFreeze(t, text, seq.DNA)
	full := saveV3(t, c)
	back, layout, err := OpenCompactAt(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("OpenCompactAt: %v", err)
	}
	if layout.FileSize != int64(len(full)) {
		t.Fatalf("layout FileSize = %d, want %d", layout.FileSize, len(full))
	}
	for q := 0; q < 200; q++ {
		p := make([]byte, 1+rng.Intn(8))
		for i := range p {
			p[i] = "acgt"[rng.Intn(4)]
		}
		if got, want := back.FindAll(p), c.FindAll(p); !equalInts(got, want) {
			t.Fatalf("FindAll(%q) = %v, want %v", p, got, want)
		}
	}
}

// legacyWriter replays the v2 stream format byte for byte, so current
// readers stay pinned against images written by previous releases.
type legacyWriter struct {
	w   *bufio.Writer
	sum hash.Hash32
	err error
}

func (cw *legacyWriter) bytes(b []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.w.Write(b); err != nil {
		cw.err = err
		return
	}
	cw.sum.Write(b)
}

func (cw *legacyWriter) u8(v uint8) { cw.bytes([]byte{v}) }
func (cw *legacyWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	cw.bytes(b[:])
}
func (cw *legacyWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.bytes(b[:])
}
func (cw *legacyWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	cw.bytes(b[:])
}
func (cw *legacyWriter) u16s(vs []uint16) {
	cw.u32(uint32(len(vs)))
	for _, v := range vs {
		cw.u16(v)
	}
}
func (cw *legacyWriter) u32s(vs []uint32) {
	cw.u32(uint32(len(vs)))
	for _, v := range vs {
		cw.u32(v)
	}
}
func (cw *legacyWriter) byteSlice(vs []byte) {
	cw.u32(uint32(len(vs)))
	cw.bytes(vs)
}

// saveLegacyV2 writes c in the retired v2 stream format.
func saveLegacyV2(t *testing.T, c *CompactIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := &legacyWriter{w: bufio.NewWriter(&buf), sum: crc32.NewIEEE()}
	cw.bytes([]byte(serializeMagic))
	cw.u16(serializeVersionLegacy)
	letters := make([]byte, c.alpha.Size())
	for i := range letters {
		letters[i] = c.alpha.Letter(i)
	}
	cw.byteSlice(letters)
	cw.u32(uint32(c.n))
	cw.u8(uint8(c.chars.Bits()))
	cw.byteSlice(c.chars.Unpack())
	cw.u16s(c.lel)
	cw.u32s(c.ref)
	for shape := 1; shape < numShapes; shape++ {
		tb := &c.tables[shape]
		cw.u32s(tb.ld)
		cw.u32s(tb.ribRD)
		cw.u16s(tb.ribPT)
		cw.byteSlice(tb.ribCL)
		cw.u32s(tb.extRD)
		cw.u16s(tb.extPT)
		cw.u16s(tb.extPRT)
		cw.u32s(tb.extSrc)
	}
	sp := &c.spill
	cw.u32s(sp.ld)
	cw.u32s(sp.start)
	cw.u32s(sp.ribRD)
	cw.u16s(sp.ribPT)
	cw.byteSlice(sp.ribCL)
	cw.u32s(sp.extRD)
	cw.u16s(sp.extPT)
	cw.u16s(sp.extPRT)
	cw.u32s(sp.extSrc)
	cw.u32(uint32(len(c.lelOverflow)))
	for k, v := range c.lelOverflow {
		cw.u32(uint32(k))
		cw.u32(uint32(v))
	}
	cw.u32(uint32(len(c.ptOverflow)))
	for k, v := range c.ptOverflow {
		cw.u64(k)
		cw.u32(uint32(v))
	}
	cw.u32(uint32(len(c.extOverflow)))
	for k, v := range c.extOverflow {
		cw.u32(uint32(k))
		cw.u32(uint32(v[0]))
		cw.u32(uint32(v[1]))
	}
	cw.u32(uint32(len(c.blocks)))
	for _, bm := range c.blocks {
		cw.u32(uint32(bm.maxLEL))
		cw.u32(uint32(bm.minLink))
		cw.u32(uint32(bm.maxLink))
	}
	if cw.err != nil {
		t.Fatalf("legacy save: %v", cw.err)
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], cw.sum.Sum32())
	if _, err := cw.w.Write(b[:]); err != nil {
		t.Fatal(err)
	}
	if err := cw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLegacyV2FilesStillLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	text := randomRepetitive(rng, []byte("acgt"), 600)
	c := mustFreeze(t, text, seq.DNA)
	old := saveLegacyV2(t, c)
	back, err := ReadCompact(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("ReadCompact(v2): %v", err)
	}
	for q := 0; q < 200; q++ {
		p := make([]byte, 1+rng.Intn(8))
		for i := range p {
			p[i] = "acgt"[rng.Intn(4)]
		}
		if got, want := back.FindAll(p), c.FindAll(p); !equalInts(got, want) {
			t.Fatalf("v2 FindAll(%q) = %v, want %v", p, got, want)
		}
	}
	// The zero-copy paths are v3-only and must decline a v2 image
	// cleanly, not panic on the foreign layout.
	if CanOpenZeroCopy(old) {
		t.Fatal("v2 image claimed zero-copy openable")
	}
	if _, _, err := OpenCompactBytes(aligned8(append([]byte(nil), old...)), true); err == nil {
		t.Fatal("OpenCompactBytes accepted a v2 image")
	}
	if _, _, err := OpenCompactAt(bytes.NewReader(old)); err == nil {
		t.Fatal("OpenCompactAt accepted a v2 image")
	}
}

func TestLegacyV2CorruptionStillRejected(t *testing.T) {
	c := mustFreeze(t, []byte("aaccacaacaggtacca"), seq.DNA)
	old := saveLegacyV2(t, c)
	rng := rand.New(rand.NewSource(146))
	for i := 0; i < 40; i++ {
		corrupt := append([]byte(nil), old...)
		pos := rng.Intn(len(corrupt))
		corrupt[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := ReadCompact(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("v2 bit flip at %d accepted", pos)
		}
	}
}

// FuzzMappedEquivalence pins the zero-copy open against the heap
// deserialization and an independent suffix tree: for any text and
// pattern, a mapped image must answer with identical positions, counts,
// truncation and NodesChecked. `go test` runs the corpus;
// `go test -fuzz=FuzzMappedEquivalence` mines.
func FuzzMappedEquivalence(f *testing.F) {
	f.Add([]byte("aaccacaaca"), []byte("ca"), uint8(0), uint8(0))
	f.Add([]byte("abababab"), []byte("ab"), uint8(3), uint8(0))
	f.Add(repeatStr("acca", 33), []byte("cca"), uint8(1), uint8(0))
	f.Add(repeatStr("a", 65), []byte("aaa"), uint8(2), uint8(0))
	f.Add(repeatStr("gattaca", 40), repeatStr("gattaca", 10), uint8(0), uint8(0))
	// The probe's decode arms, as in FuzzScanEquivalence: spilled nodes,
	// an empty spill table under mixed refs, overflowed LELs.
	f.Add(repeatStr("abacadaeafagah", 12), []byte("ab"), uint8(0), uint8(1))
	f.Add(repeatStr("aabacadbbcbdccd", 9), []byte("da"), uint8(2), uint8(0))
	f.Add([]byte("acgtacg"), []byte("acgtacgtac"), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, rawText, rawPat []byte, limRaw, mode uint8) {
		text, pat, alpha, ok := fuzzInput(rawText, rawPat, mode)
		if !ok {
			return
		}
		heap, err := Freeze(Build(text), alpha)
		if err != nil {
			t.Fatalf("Freeze: %v", err)
		}
		var buf bytes.Buffer
		if err := heap.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		mapped, _, err := OpenCompactBytes(aligned8(append([]byte(nil), buf.Bytes()...)), true)
		if err != nil {
			t.Fatalf("OpenCompactBytes: %v", err)
		}
		st, err := suffixtree.Build(text, 0xFF)
		if err != nil {
			t.Fatalf("suffixtree.Build: %v", err)
		}
		oracle := st.FindAll(pat)

		ctx := context.Background()
		hres, err := heap.FindAllCtx(ctx, pat, 0)
		if err != nil {
			t.Fatal(err)
		}
		mres, err := mapped.FindAllCtx(ctx, pat, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(mres.Positions, oracle) {
			t.Fatalf("mapped FindAll(%q in %q) = %v, want %v", pat, text, mres.Positions, oracle)
		}
		if !equalInts(mres.Positions, hres.Positions) || mres.NodesChecked != hres.NodesChecked {
			t.Fatalf("mapped (%v, %d nodes) != heap (%v, %d nodes)",
				mres.Positions, mres.NodesChecked, hres.Positions, hres.NodesChecked)
		}
		hc, hn, err := heap.CountCtx(ctx, pat)
		if err != nil {
			t.Fatal(err)
		}
		mc, mn, err := mapped.CountCtx(ctx, pat)
		if err != nil {
			t.Fatal(err)
		}
		if mc != hc || mc != len(oracle) || mn != hn {
			t.Fatalf("Count(%q): mapped %d (%d nodes), heap %d (%d nodes), suffix tree %d", pat, mc, mn, hc, hn, len(oracle))
		}
		if limit := int(limRaw) % 5; limit > 0 {
			hl, err1 := heap.FindAllCtx(ctx, pat, limit)
			ml, err2 := mapped.FindAllCtx(ctx, pat, limit)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !equalInts(ml.Positions, hl.Positions) || ml.Truncated != hl.Truncated || ml.NodesChecked != hl.NodesChecked {
				t.Fatalf("limit %d: mapped %+v != heap %+v", limit, ml, hl)
			}
		}
	})
}
