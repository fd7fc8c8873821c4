package trace

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
	"unicode"
)

// fingerprintReference is FingerprintOf written the obvious way: the
// hash/fnv hasher, fmt for the hex digits, unicode for printability.
func fingerprintReference(p []byte) Fingerprint {
	h := fnv.New64a()
	h.Write(p)
	n := min(len(p), fingerprintPrefixLen)
	prefix := make([]byte, 0, n)
	for _, c := range p[:n] {
		if c > unicode.MaxASCII || !unicode.IsPrint(rune(c)) {
			c = '.'
		}
		prefix = append(prefix, c)
	}
	return Fingerprint{Hash: fmt.Sprintf("%016x", h.Sum64()), Len: len(p), Prefix: string(prefix)}
}

func TestFingerprintMatchesReference(t *testing.T) {
	inputs := [][]byte{nil, {}, []byte("acgt"), []byte("a b\tc\x7f\x80\xff~ ")}
	for c := 0; c < 256; c++ {
		inputs = append(inputs, []byte{byte(c)})
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		p := make([]byte, rng.IntN(80))
		for j := range p {
			p[j] = byte(rng.UintN(256))
		}
		inputs = append(inputs, p)
	}
	for _, p := range inputs {
		if got, want := FingerprintOf(p), fingerprintReference(p); got != want {
			t.Fatalf("FingerprintOf(%q) = %+v, want %+v", p, got, want)
		}
	}
}

// summarizeReference is Summarize keyed through a map.
func summarizeReference(recs []Record) []StageSummary {
	type key struct {
		stage string
		shard int
	}
	idx := map[key]int{}
	var out []StageSummary
	for _, r := range recs {
		k := key{r.Stage, r.Shard}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, StageSummary{Stage: r.Stage, Shard: r.Shard})
		}
		out[i].Spans++
		out[i].DurationUs += r.Duration.Microseconds()
		out[i].Counters.add(r.Counters)
	}
	return out
}

func TestSummarizeMatchesReference(t *testing.T) {
	if Summarize(nil) != nil || Summarize([]Record{}) != nil {
		t.Fatal("an empty trace must summarize to nil (slow-log entries encode it as null)")
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		recs := make([]Record, rng.IntN(40))
		for i := range recs {
			recs[i] = Record{
				Stage:    AllStages[rng.IntN(len(AllStages))],
				Shard:    rng.IntN(5) - 1,
				Duration: time.Duration(rng.IntN(5000)) * time.Microsecond,
				Counters: Counters{Nodes: rng.Int64N(100), BlocksSkipped: rng.Int64N(9)},
			}
		}
		if got, want := Summarize(recs), summarizeReference(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Summarize = %+v, want %+v", trial, got, want)
		}
	}
}
