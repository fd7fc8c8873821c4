package spine

import (
	"errors"
	"math/rand"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	idx := Build([]byte("aaccacaaca"))
	if !idx.Contains([]byte("cacaa")) {
		t.Error(`Contains("cacaa") = false`)
	}
	if idx.Contains([]byte("accaa")) {
		t.Error(`Contains("accaa") = true (paper's false-positive example)`)
	}
	if got := idx.Find([]byte("ac")); got != 1 {
		t.Errorf("Find(ac) = %d, want 1", got)
	}
	if got := idx.FindAll([]byte("ac")); len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 7 {
		t.Errorf("FindAll(ac) = %v, want [1 4 7]", got)
	}
	if got := idx.Count([]byte("ca")); got != 3 {
		t.Errorf("Count(ca) = %d, want 3", got)
	}
}

func TestOnlineAppendAPI(t *testing.T) {
	idx := New()
	for _, c := range []byte("aaccacaaca") {
		idx.Append(c)
	}
	if idx.Len() != 10 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if got := idx.FindAll([]byte("ca")); len(got) != 3 {
		t.Fatalf("FindAll(ca) = %v", got)
	}
	idx2 := New()
	idx2.AppendString([]byte("aaccacaaca"))
	if string(idx.Text()) != string(idx2.Text()) {
		t.Fatal("Append and AppendString disagree")
	}
}

func TestStatsAPI(t *testing.T) {
	st := Build([]byte("aaccacaaca")).Stats()
	if st.Length != 10 || st.RibCount != 4 || st.ExtribCount != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.MaxLEL != 3 || st.MaxPT != 3 || st.MaxPRT != 1 {
		t.Fatalf("label maxima = %d/%d/%d", st.MaxLEL, st.MaxPT, st.MaxPRT)
	}
	if st.MemoryBytes <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
}

func TestCompactAPI(t *testing.T) {
	idx := Build([]byte("acgtacgtacca"))
	c, err := idx.Compact(DNA)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if c.Len() != idx.Len() {
		t.Fatal("lengths differ")
	}
	for _, p := range []string{"acgt", "gta", "cca", "zz", "acca"} {
		if c.Contains([]byte(p)) != idx.Contains([]byte(p)) {
			t.Fatalf("Contains(%q) disagrees", p)
		}
	}
	if c.SizeBytes() <= 0 || c.BytesPerChar() <= 0 {
		t.Fatal("size accounting non-positive")
	}
	if _, err := Build([]byte("hello")).Compact(DNA); err == nil {
		t.Fatal("Compact accepted text outside the alphabet")
	}
}

func TestLinkHistogramAPI(t *testing.T) {
	h := Build([]byte("aaccacaacaaaccacaaca")).LinkHistogram(4)
	if len(h) != 4 {
		t.Fatalf("histogram = %v", h)
	}
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("histogram sums to %v", sum)
	}
}

func TestMaximalMatchesAPI(t *testing.T) {
	data := []byte("acaccgacgatacgagattacgagacgagaatacaacag")
	query := []byte("catagagagacgattacgagaaaacgggaaagacgatcc")
	idx := Build(data)
	matches, info, err := idx.MaximalMatches(query, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || info.Pairs == 0 || info.NodesChecked == 0 {
		t.Fatalf("degenerate result: %d matches, info %+v", len(matches), info)
	}
	for _, m := range matches {
		if m.Len < 6 {
			t.Fatalf("match below threshold: %+v", m)
		}
		for _, ds := range m.DataStarts {
			if string(data[ds:ds+m.Len]) != string(query[m.QueryStart:m.QueryStart+m.Len]) {
				t.Fatalf("reported match does not actually match: %+v", m)
			}
		}
	}
	// Compact variant must agree.
	c, err := idx.Compact(DNA)
	if err != nil {
		t.Fatal(err)
	}
	cm, _, err := c.MaximalMatches(query, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm) != len(matches) {
		t.Fatalf("compact found %d matches, reference %d", len(cm), len(matches))
	}
}

func TestAlignAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := make([]byte, 3000)
	for i := range ref {
		ref[i] = "acgt"[rng.Intn(4)]
	}
	query := append([]byte{}, ref...)
	for i := range query {
		if rng.Float64() < 0.01 {
			query[i] = "acgt"[rng.Intn(4)]
		}
	}
	al, err := Build(ref).Align(query, 15)
	if err != nil {
		t.Fatal(err)
	}
	if al.QueryCoverage < 0.6 {
		t.Fatalf("coverage %.2f too low for a 1%%-mutated copy", al.QueryCoverage)
	}
}

func TestGeneralizedAPI(t *testing.T) {
	g, err := BuildGeneralized([][]byte{
		[]byte("acgtacgt"),
		[]byte("ttacgg"),
		[]byte("acgt"),
	}, '#')
	if err != nil {
		t.Fatal(err)
	}
	if g.Strings() != 3 {
		t.Fatalf("Strings = %d", g.Strings())
	}
	if !g.Contains([]byte("tacg")) {
		t.Error("Contains(tacg) = false")
	}
	locs := g.FindAll([]byte("acg"))
	want := []Location{{0, 0}, {0, 4}, {1, 2}, {2, 0}}
	if len(locs) != len(want) {
		t.Fatalf("FindAll(acg) = %v, want %v", locs, want)
	}
	for i := range locs {
		if locs[i] != want[i] {
			t.Fatalf("FindAll(acg) = %v, want %v", locs, want)
		}
	}
	// Matches must never span the separator: the joined text is
	// acgtacgt#ttacgg#acgt, so "gtt" straddles strings 0 and 1 and occurs
	// in no single string.
	if g.Contains([]byte("gtt")) {
		t.Error("match spanned the separator")
	}
	if g.Contains([]byte("t#t")) {
		t.Error("pattern containing separator reported found")
	}
}

func TestGeneralizedRejectsSeparatorInText(t *testing.T) {
	if _, err := BuildGeneralized([][]byte{[]byte("a#b")}, '#'); err == nil {
		t.Fatal("separator inside text accepted")
	}
}

func TestGeneralizedSingleString(t *testing.T) {
	g, err := BuildGeneralized([][]byte{[]byte("acgt")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	locs := g.FindAll([]byte("cg"))
	if len(locs) != 1 || locs[0] != (Location{0, 1}) {
		t.Fatalf("FindAll(cg) = %v", locs)
	}
}

func TestDiskIndexAPI(t *testing.T) {
	d, err := CreateDisk(t.TempDir(), DiskOptions{PageSize: 512, BufferPages: 8, Policy: PolicyTopRetention})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.AppendString([]byte("aaccacaaca")); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 10 {
		t.Fatalf("Len = %d", d.Len())
	}
	all, err := d.FindAll([]byte("ac"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0] != 1 {
		t.Fatalf("FindAll(ac) = %v", all)
	}
	ok, err := d.Contains([]byte("accaa"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("disk index admitted false positive")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.IOStats().Writes == 0 {
		t.Fatal("no writes recorded after flush")
	}
}

// TestPublicPrefixPartitioning demonstrates §2.7 through the public API.
func TestPublicPrefixPartitioning(t *testing.T) {
	s := []byte("ccacaacgtgttaaccacaacag")
	full := Build(s)
	for k := 1; k < len(s); k++ {
		pre := Build(s[:k])
		// Any query answer on the prefix index must equal brute force on
		// the prefix — spot-check with substrings of the full text.
		for q := 0; q+3 <= k; q += 3 {
			p := s[q : q+3]
			if pre.Contains(p) != (indexOf(s[:k], p) >= 0) {
				t.Fatalf("k=%d: prefix index wrong for %q", k, p)
			}
		}
		_ = full
	}
}

func indexOf(s, p []byte) int {
	for i := 0; i+len(p) <= len(s); i++ {
		if string(s[i:i+len(p)]) == string(p) {
			return i
		}
	}
	return -1
}

func TestOpenDiskPageSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateDisk(dir, DiskOptions{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendString([]byte("acgtacgt")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A conflicting page size must fail loudly with the sentinel, not be
	// silently ignored (the page files were written at 512).
	if _, err := OpenDisk(dir, DiskOptions{PageSize: 4096}); !errors.Is(err, ErrPageSizeMismatch) {
		t.Fatalf("mismatched page size: err = %v, want ErrPageSizeMismatch", err)
	}
	// Zero (use stored) and the matching value both open.
	for _, ps := range []int{0, 512} {
		re, err := OpenDisk(dir, DiskOptions{PageSize: ps})
		if err != nil {
			t.Fatalf("PageSize %d: %v", ps, err)
		}
		if ok, err := re.Contains([]byte("gtac")); err != nil || !ok {
			t.Fatalf("PageSize %d: Contains = %v, %v", ps, ok, err)
		}
		re.Close()
	}
}

func TestDiskPersistenceAPI(t *testing.T) {
	dir := t.TempDir()
	d, err := CreateDisk(dir, DiskOptions{PageSize: 512, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendString([]byte("aaccacaaca")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, DiskOptions{BufferPages: 4, Policy: PolicyTopRetention})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer re.Close()
	all, err := re.FindAll([]byte("ac"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0] != 1 || all[1] != 4 || all[2] != 7 {
		t.Fatalf("reopened FindAll(ac) = %v", all)
	}
}

func TestAlignBothStrandsAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := make([]byte, 4000)
	for i := range ref {
		ref[i] = "acgt"[rng.Intn(4)]
	}
	query := append([]byte{}, ref...)
	rc, err := ReverseComplement(query[1000:2000])
	if err != nil {
		t.Fatal(err)
	}
	copy(query[1000:2000], rc)
	fwd, rev, err := Build(ref).AlignBothStrands(query, 20)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.QueryCoverage < 0.5 {
		t.Fatalf("forward coverage %.2f", fwd.QueryCoverage)
	}
	if rev.QueryCoverage < 0.1 {
		t.Fatalf("reverse coverage %.2f; inversion missed", rev.QueryCoverage)
	}
	if _, _, err := Build(ref).AlignBothStrands([]byte("acgn"), 5); err == nil {
		t.Fatal("non-DNA query accepted")
	}
}

func TestCompactBuilderAPI(t *testing.T) {
	cb, err := NewCompactBuilder(DNA)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.AppendString([]byte("aaccacaaca")); err != nil {
		t.Fatal(err)
	}
	if cb.Len() != 10 {
		t.Fatalf("Len = %d", cb.Len())
	}
	c := cb.Finish()
	if got := c.FindAll([]byte("ac")); len(got) != 3 || got[0] != 1 {
		t.Fatalf("FindAll(ac) = %v", got)
	}
	if c.Contains([]byte("accaa")) {
		t.Fatal("direct-built compact admitted the false positive")
	}
}

func TestForEachOccurrenceAPIs(t *testing.T) {
	idx := Build([]byte("aaccacaaca"))
	var got []int
	idx.ForEachOccurrence([]byte("ca"), func(start int) bool {
		got = append(got, start)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("streamed = %v", got)
	}
	g, err := BuildGeneralized([][]byte{[]byte("acgt"), []byte("ttacg")}, '#')
	if err != nil {
		t.Fatal(err)
	}
	var locs []Location
	g.ForEachOccurrence([]byte("acg"), func(l Location) bool {
		locs = append(locs, l)
		return true
	})
	if len(locs) != 2 || locs[0] != (Location{0, 0}) || locs[1] != (Location{1, 2}) {
		t.Fatalf("generalized streamed = %v", locs)
	}
}

func TestCompactTextAndStatsAPI(t *testing.T) {
	idx := Build([]byte("aaccacaaca"))
	c, err := idx.Compact(DNA)
	if err != nil {
		t.Fatal(err)
	}
	if string(c.Text()) != "aaccacaaca" {
		t.Fatalf("Text = %q", c.Text())
	}
	st := c.Stats()
	if st.Length != 10 || st.RibCount != 4 || st.ExtribCount != 2 || st.MaxLEL != 3 {
		t.Fatalf("Stats = %+v", st)
	}
}
