package spine

import (
	"context"
	"time"

	"github.com/spine-index/spine/internal/align"
	"github.com/spine-index/spine/internal/match"
	"github.com/spine-index/spine/internal/seq"
)

// Match is one maximal matching substring between the indexed text and a
// query (§4 of the paper): it occurs at QueryStart in the query and at
// every offset in DataStarts in the indexed text, and cannot be extended
// on either side at any of those positions.
type Match struct {
	QueryStart int
	Len        int
	DataStarts []int
}

// MatchInfo carries run metadata for a matching operation.
type MatchInfo struct {
	// Pairs is the total number of (query, data) position pairs reported.
	Pairs int
	// NodesChecked counts index nodes examined — SPINE's set-basis suffix
	// processing keeps this far below suffix-tree search (§4.1).
	NodesChecked int64
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// MaximalMatches finds all maximal matching substrings of length >= minLen
// between the indexed text and query, including repeated occurrences. The
// first occurrence of each match comes from the valid-path search; the
// repetitions are resolved in one deferred backbone scan.
func (x *Index) MaximalMatches(query []byte, minLen int) ([]Match, MatchInfo, error) {
	return x.MaximalMatchesContext(context.Background(), query, minLen)
}

// MaximalMatchesContext is MaximalMatches with cancellation: both the
// streaming pass and the final occurrence-resolution scan abort promptly
// (returning ctx.Err()) once the context ends.
func (x *Index) MaximalMatchesContext(ctx context.Context, query []byte, minLen int) ([]Match, MatchInfo, error) {
	rep, err := match.MaximalMatchesCtx(ctx, match.NewSpineEngine(x.c), x.Text(), query, minLen)
	if err != nil {
		return nil, MatchInfo{}, err
	}
	return convertReport(rep)
}

// MaximalMatches is the compact-layout variant; see Index.MaximalMatches.
// The compact layout stores the indexed text bit-packed; it is unpacked
// lazily on first use and cached.
func (x *Compact) MaximalMatches(query []byte, minLen int) ([]Match, MatchInfo, error) {
	return x.MaximalMatchesContext(context.Background(), query, minLen)
}

// MaximalMatchesContext is MaximalMatches with cancellation; see
// Index.MaximalMatchesContext.
func (x *Compact) MaximalMatchesContext(ctx context.Context, query []byte, minLen int) ([]Match, MatchInfo, error) {
	rep, err := match.MaximalMatchesCtx(ctx, match.NewCompactSpineEngine(x.c), x.data(), query, minLen)
	if err != nil {
		return nil, MatchInfo{}, err
	}
	return convertReport(rep)
}

func convertReport(rep match.Report) ([]Match, MatchInfo, error) {
	out := make([]Match, len(rep.Matches))
	for i, m := range rep.Matches {
		out[i] = Match{QueryStart: m.QueryStart, Len: m.Len, DataStarts: m.DataStarts}
	}
	return out, MatchInfo{Pairs: rep.Pairs, NodesChecked: rep.NodesChecked, Elapsed: rep.Elapsed}, nil
}

// Anchor is one segment of a chained alignment: query[QStart:QStart+Len]
// equals the indexed text at [RStart:RStart+Len].
type Anchor struct {
	QStart, RStart, Len int
}

// Alignment is a MUMmer-style global alignment skeleton: the heaviest
// colinear chain of reference-unique maximal matches.
type Alignment struct {
	Chain                      []Anchor
	Anchored                   int
	QueryCoverage, RefCoverage float64
}

// Align extracts reference-unique maximal matches of length >= minAnchor
// between the indexed text and query and chains them colinearly — the
// global-alignment application the paper's introduction motivates.
func (x *Index) Align(query []byte, minAnchor int) (Alignment, error) {
	al, err := align.Align(match.NewSpineEngine(x.c), x.Text(), query, minAnchor)
	if err != nil {
		return Alignment{}, err
	}
	return convertAlignment(al), nil
}

// AlignBothStrands aligns query and its DNA reverse complement against the
// indexed text, returning one alignment per orientation. Reverse-strand
// anchor coordinates refer to the forward query: the anchor's query window
// matches the reference after reverse complementation. The query must be
// DNA.
func (x *Index) AlignBothStrands(query []byte, minAnchor int) (forward, reverse Alignment, err error) {
	if _, err := seq.ReverseComplement(query); err != nil {
		return Alignment{}, Alignment{}, err
	}
	f, r, err := align.AlignBothStrands(match.NewSpineEngine(x.c), x.Text(), query, minAnchor, seq.MustReverseComplement)
	if err != nil {
		return Alignment{}, Alignment{}, err
	}
	return convertAlignment(f), convertAlignment(r), nil
}

// ReverseComplement returns the reverse complement of a DNA sequence
// (a<->t, c<->g, case-preserving); it fails on non-DNA bytes.
func ReverseComplement(s []byte) ([]byte, error) { return seq.ReverseComplement(s) }

func convertAlignment(al align.Alignment) Alignment {
	out := Alignment{
		Anchored:      al.Anchored,
		QueryCoverage: al.QueryCoverage,
		RefCoverage:   al.RefCoverage,
		Chain:         make([]Anchor, len(al.Chain)),
	}
	for i, a := range al.Chain {
		out.Chain[i] = Anchor{QStart: a.QStart, RStart: a.RStart, Len: a.Len}
	}
	return out
}
