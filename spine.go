package spine

import (
	"context"
	"fmt"
	"io"
	"sync"

	"github.com/spine-index/spine/internal/core"
	"github.com/spine-index/spine/internal/seq"
)

// Index is an in-memory SPINE index over a byte string. Construction is
// online (Append) or one-shot (Build). An Index is safe for concurrent
// readers once construction stops; it is not safe to Append concurrently
// with queries.
type Index struct {
	c *core.Index
}

// Build constructs the index for text in one pass. The input is copied.
func Build(text []byte) *Index {
	return &Index{c: core.Build(text)}
}

// New returns an empty index ready for online Append. The index over the
// first k appended characters is always complete and queryable, and equals
// the first-k fragment of any longer index (prefix partitioning, §2.7 of
// the paper).
func New() *Index { return &Index{c: core.New()} }

// Append extends the index by one character.
func (x *Index) Append(c byte) { x.c.Append(c) }

// AppendString extends the index by every byte of s.
func (x *Index) AppendString(s []byte) {
	for _, c := range s {
		x.c.Append(c)
	}
}

// Len returns the number of indexed characters.
func (x *Index) Len() int { return x.c.Len() }

// Text returns the indexed string. SPINE stores it as the backbone's
// vertebra labels; the returned slice is internal storage — do not modify.
func (x *Index) Text() []byte { return x.c.Text() }

// Contains reports whether p is a substring of the indexed text.
func (x *Index) Contains(p []byte) bool { return x.c.Contains(p) }

// Find returns the start offset of the first occurrence of p, or -1.
func (x *Index) Find(p []byte) int { return x.c.Find(p) }

// FindAll returns every occurrence start offset of p (including
// overlapping occurrences) in increasing order; nil if p does not occur.
func (x *Index) FindAll(p []byte) []int { return x.c.FindAll(p) }

// FindAllAppend appends every occurrence start offset of p to dst in
// increasing order and returns the extended slice. Passing a reused
// buffer makes steady-state occurrence listing allocation-free.
func (x *Index) FindAllAppend(p []byte, dst []int) []int { return x.c.FindAllAppend(p, dst) }

// Count returns the number of occurrences of p. The scan streams; no
// per-occurrence memory is allocated.
func (x *Index) Count(p []byte) int { return x.c.Count(p) }

// countPrefixContext counts occurrences of p whose start offset is below
// maxStart (maxStart < 0 means unbounded). Sharded.CountContext uses it
// to count each shard's own slice, excluding overlap-region starts that
// belong to the next shard.
func (x *Index) countPrefixContext(ctx context.Context, p []byte, maxStart int) (count int, nodes int64, err error) {
	return x.c.CountPrefixCtx(ctx, p, maxStart)
}

// Stats reports the index's structural measurements.
func (x *Index) Stats() Stats {
	st := x.c.ComputeStats()
	return Stats{
		Length:      st.Length,
		MaxLEL:      int(st.MaxLEL),
		MaxPT:       int(st.MaxPT),
		MaxPRT:      int(st.MaxPRT),
		RibCount:    st.RibCount,
		ExtribCount: st.ExtribCount,
		FanoutNodes: append([]int(nil), st.FanoutNodes...),
		MemoryBytes: x.c.MemoryBytes(),
	}
}

// LinkHistogram buckets link destinations into equal backbone segments and
// returns the percentage of links landing in each (Figure 8 of the paper);
// the distribution is top-heavy on genomic data, which motivates the
// top-retention disk buffering policy.
func (x *Index) LinkHistogram(buckets int) []float64 { return x.c.LinkHistogram(buckets) }

// Compact freezes the index into the read-only §5 table layout: bit-packed
// character labels, 2-byte numeric labels with an overflow table, and
// per-fanout rib tables — under 12 bytes per DNA character. The alphabet
// must cover every indexed character.
func (x *Index) Compact(a *Alphabet) (*Compact, error) {
	if a == nil || a.Size() == 0 {
		return nil, ErrEmptyAlphabet
	}
	ci, err := core.Freeze(x.c, (*seq.Alphabet)(a))
	if err != nil {
		return nil, fmt.Errorf("spine: %w", err)
	}
	return &Compact{c: ci}, nil
}

// Stats summarizes a built index's structure (Tables 2-4 of the paper).
type Stats struct {
	// Length is the indexed string length (== node count minus the root).
	Length int
	// MaxLEL, MaxPT, MaxPRT are the largest numeric edge label values.
	MaxLEL, MaxPT, MaxPRT int
	// RibCount and ExtribCount are the total downstream cross edges.
	RibCount, ExtribCount int
	// FanoutNodes[k] counts nodes with exactly k downstream cross edges
	// (the last bucket accumulates larger fan-outs).
	FanoutNodes []int
	// MemoryBytes is the approximate heap footprint of this (reference)
	// layout; Compact.SizeBytes is the optimized figure.
	MemoryBytes int64
}

// Compact is the frozen, read-optimized SPINE layout. Queries take raw
// letters; a pattern containing a letter outside the alphabet simply does
// not occur.
type Compact struct {
	c *core.CompactIndex

	// textOnce/text lazily unpack the bit-packed vertebra labels the
	// first time an operation (MaximalMatches' left-maximality checks)
	// needs the raw string; queries never touch it.
	textOnce sync.Once
	text     []byte
}

// data returns the indexed text, unpacking it from the compact layout on
// first use and caching it for subsequent calls.
func (x *Compact) data() []byte {
	x.textOnce.Do(func() { x.text = x.c.Text() })
	return x.text
}

// Len returns the number of indexed characters.
func (x *Compact) Len() int { return x.c.Len() }

// Contains reports whether p is a substring of the indexed text.
func (x *Compact) Contains(p []byte) bool { return x.c.Contains(p) }

// Find returns the start offset of the first occurrence of p, or -1.
func (x *Compact) Find(p []byte) int { return x.c.Find(p) }

// FindAll returns every occurrence start offset of p in increasing order.
func (x *Compact) FindAll(p []byte) []int { return x.c.FindAll(p) }

// FindAllAppend appends every occurrence start offset of p to dst in
// increasing order and returns the extended slice; see Index.FindAllAppend.
func (x *Compact) FindAllAppend(p []byte, dst []int) []int { return x.c.FindAllAppend(p, dst) }

// ForEachOccurrence streams every occurrence start offset of p in
// increasing order, stopping early when fn returns false.
func (x *Compact) ForEachOccurrence(p []byte, fn func(start int) bool) {
	x.c.ForEachOccurrence(p, fn)
}

// Count returns the number of occurrences of p. The scan streams; no
// per-occurrence memory is allocated.
func (x *Compact) Count(p []byte) int { return x.c.Count(p) }

// SizeBytes returns the layout's total footprint.
func (x *Compact) SizeBytes() int64 { return x.c.SizeBytes() }

// BytesPerChar returns SizeBytes divided by the text length — the paper's
// headline "< 12 bytes per indexed character" figure.
func (x *Compact) BytesPerChar() float64 { return x.c.BytesPerChar() }

// Save serializes the compact index (versioned, checksummed format).
func (x *Compact) Save(w io.Writer) error { return x.c.Save(w) }

// LoadCompact deserializes a compact index written by Compact.Save,
// verifying structure and checksum; truncated or corrupted inputs are
// rejected with an error.
func LoadCompact(r io.Reader) (*Compact, error) {
	c, err := core.ReadCompact(r)
	if err != nil {
		return nil, err
	}
	return &Compact{c: c}, nil
}

// CompactBuilder constructs a Compact index directly in the table layout,
// online — no intermediate pointer-based index. Rows migrate between rib
// tables as nodes gain edges, the construction mode of the paper's
// prototype (§5).
type CompactBuilder struct {
	b *core.CompactBuilder
}

// NewCompactBuilder returns an empty builder over the given alphabet.
func NewCompactBuilder(a *Alphabet) (*CompactBuilder, error) {
	if a == nil || a.Size() == 0 {
		return nil, ErrEmptyAlphabet
	}
	b, err := core.NewCompactBuilder((*seq.Alphabet)(a))
	if err != nil {
		return nil, err
	}
	return &CompactBuilder{b: b}, nil
}

// Append extends the index by one character; the letter must belong to the
// alphabet.
func (cb *CompactBuilder) Append(letter byte) error { return cb.b.Append(letter) }

// AppendString extends the index by every byte of s.
func (cb *CompactBuilder) AppendString(s []byte) error {
	for _, c := range s {
		if err := cb.b.Append(c); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of appended characters.
func (cb *CompactBuilder) Len() int { return cb.b.Len() }

// Finish returns the completed compact index; the builder must not be
// used afterwards.
func (cb *CompactBuilder) Finish() *Compact { return &Compact{c: cb.b.Finish()} }

// ForEachOccurrence streams every occurrence start offset of p in
// increasing order, stopping early when fn returns false — FindAll without
// materializing the result slice.
func (x *Index) ForEachOccurrence(p []byte, fn func(start int) bool) {
	x.c.ForEachOccurrence(p, fn)
}

// Text reconstructs the indexed string from the compact layout's packed
// vertebra labels (the index is its own text).
func (x *Compact) Text() []byte { return x.c.Text() }

// Stats reports the compact index's structural measurements, computed
// from the table layout itself (works on loaded indexes too).
func (x *Compact) Stats() Stats {
	st := x.c.ComputeStats()
	return Stats{
		Length:      st.Length,
		MaxLEL:      int(st.MaxLEL),
		MaxPT:       int(st.MaxPT),
		MaxPRT:      int(st.MaxPRT),
		RibCount:    st.RibCount,
		ExtribCount: st.ExtribCount,
		FanoutNodes: append([]int(nil), st.FanoutNodes...),
		MemoryBytes: x.c.SizeBytes(),
	}
}
