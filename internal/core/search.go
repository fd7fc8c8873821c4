package core

import "context"

// Index implements store over the reference layout.

func (idx *Index) textLen() int32                      { return int32(len(idx.text)) }
func (idx *Index) charAt(v int32) byte                 { return idx.text[v] }
func (idx *Index) findRib(t int32, c byte) (Rib, bool) { return idx.ribAt(t, c) }
func (idx *Index) linkOf(i int32) (int32, int32)       { return idx.link[i], idx.lel[i] }
func (idx *Index) skipBlocks() []blockMeta             { return idx.blocks }

func (idx *Index) findExtrib(t int32) (Extrib, bool) {
	if e := idx.edgesAt(t); e != nil && e.hasExt {
		return e.ext, true
	}
	return Extrib{}, false
}

// SWAR kernel surface: the reference layout's vertebra labels are the
// raw text bytes (8-bit lanes) and its LELs are int32 (2 lanes per word).

func (idx *Index) blockLELs() []uint64 { return idx.blockLEL }
func (idx *Index) vertBits() uint      { return 8 }

// vertWord returns text[v:v+8] as a little-endian word, zero-filled
// past the text end.
func (idx *Index) vertWord(v int32) uint64 {
	if int(v)+8 <= len(idx.text) {
		return loadU64(idx.text, int(v))
	}
	var w uint64
	for k := int(v); k < len(idx.text); k++ {
		w |= uint64(idx.text[k]) << (8 * uint(k-int(v)))
	}
	return w
}

// lelMask compares two int32 lanes per word. The int32 LELs are exact
// (no sentinel saturation), so the mask is exact here; nextMember
// re-checks regardless.
func (idx *Index) lelMask(j, last, patlen int32) (mask uint64, words int64) {
	t, k := uint32(patlen), uint(0)
	for ; j < last; j, k = j+2, k+2 {
		m := laneGE32(loadPair32(idx.lel, int(j)), t)
		mask |= ((m>>31 | m>>62) & 3) << k
		words++
	}
	if j == last && idx.lel[j] >= patlen {
		mask |= 1 << k
	}
	return mask, words
}

// nextMember reads the exact int32 LEL and the plain link column.
func (idx *Index) nextMember(base int32, mask uint64, patlen int32, bits []uint64) (int32, uint64) {
	lels, links := idx.lel, idx.link
	for mask != 0 {
		var k int32
		k, mask = lowestLane(mask)
		j := base + k
		if lels[j] < patlen {
			continue
		}
		if ld := uint32(links[j]); bits[ld>>6]>>(ld&63)&1 != 0 {
			return j, mask
		}
	}
	return 0, 0
}

// step advances a valid path of length pathlen ending at node v by one
// character c, returning the successor node. The transition relation is
// deterministic: a vertebra is always traversable, a rib only when
// pathlen <= PT, and a too-small rib falls through to the first extrib of
// its family whose PT covers pathlen. ok is false when no valid extension
// exists, which (by the no-false-negative property) means the extended
// string is not a substring.
func (idx *Index) step(v, pathlen int32, c byte) (next int32, ok bool) {
	return stepOn(idx, v, pathlen, c, nil)
}

// Contains reports whether p is a substring of the indexed text. The empty
// pattern is always contained. Time is O(len(p)) plus extrib-chain hops.
func (idx *Index) Contains(p []byte) bool {
	_, ok := idx.EndNode(p)
	return ok
}

// EndNode locates the unique valid path spelling p and returns its end
// node, which is the end position of p's first occurrence. ok is false if
// p does not occur. The empty pattern ends at the root.
func (idx *Index) EndNode(p []byte) (end int32, ok bool) { return endNodeOn(idx, p, nil) }

// Find returns the start offset of the first occurrence of p, or -1 if p
// does not occur. The empty pattern occurs at offset 0.
func (idx *Index) Find(p []byte) int {
	end, ok := idx.EndNode(p)
	if !ok {
		return -1
	}
	return int(end) - len(p)
}

// FindAll returns the start offsets of every occurrence of p (including
// overlapping ones) in increasing order, or nil if p does not occur. The
// empty pattern occurs at every offset 0..Len().
//
// Per §4 of the paper, the first occurrence comes from the valid-path
// search; the remainder come from a single downstream scan of the backbone
// that repeatedly extends a sorted target node buffer: node j is an
// occurrence end iff lel(j) >= len(p) and link(j) is already in the buffer.
func (idx *Index) FindAll(p []byte) []int { return idx.FindAllAppend(p, nil) }

// FindAllAppend is FindAll appending into dst: with a reused dst whose
// capacity covers the result, the steady-state query allocates nothing.
func (idx *Index) FindAllAppend(p []byte, dst []int) []int {
	dst, _, _, _ = findAllOn(context.Background(), idx, p, 0, dst)
	return dst
}

// scanOccurrences performs the target-node-buffer scan: given the
// first-occurrence end node and the pattern length, it returns every
// occurrence end node in increasing order.
func (idx *Index) scanOccurrences(first, patlen int32) []int32 {
	return scanOccurrencesOn(idx, first, patlen)
}

// containsSorted reports membership of x in the ascending slice buf using
// binary search (the paper's "binary fashion" target-buffer probe).
func containsSorted(buf []int32, x int32) bool {
	lo, hi := 0, len(buf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if buf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(buf) && buf[lo] == x
}

// Count returns the number of occurrences of p. The count comes from
// the streaming scan directly — no occurrence slice is materialized —
// and allocates nothing at steady state.
func (idx *Index) Count(p []byte) int {
	n, _, _ := countOn(context.Background(), idx, p, -1)
	return n
}

// ForEachOccurrence streams every occurrence start offset of p in
// increasing order to fn, stopping early if fn returns false. It performs
// the same backbone scan as FindAll but only retains the membership
// table, so enormous occurrence sets don't materialize a result slice.
func (idx *Index) ForEachOccurrence(p []byte, fn func(start int) bool) {
	forEachOccurrenceOn(idx, p, fn)
}
