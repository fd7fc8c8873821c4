package trace

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sampler decides per-query whether to allocate a full trace: 1-in-N
// with an atomic counter, so the decision is one atomic add. Rate 1
// traces every query, rate 0 (or negative) none.
type Sampler struct {
	rate int64
	n    atomic.Int64
}

// NewSampler returns a 1-in-rate sampler.
func NewSampler(rate int) *Sampler { return &Sampler{rate: int64(rate)} }

// Sample reports whether this query should carry a full trace.
func (s *Sampler) Sample() bool {
	if s == nil || s.rate <= 0 {
		return false
	}
	if s.rate == 1 {
		return true
	}
	return s.n.Add(1)%s.rate == 1
}

// Fingerprint identifies a query pattern without retaining it: an FNV-1a
// hash to group recurring offenders, the length, and a short sanitized
// prefix for human eyes.
type Fingerprint struct {
	Hash   string `json:"hash"`
	Len    int    `json:"len"`
	Prefix string `json:"prefix"`
}

// fingerprintPrefixLen bounds the stored pattern prefix.
const fingerprintPrefixLen = 32

// FingerprintOf fingerprints p in one allocation: the hash's 16 hex
// digits and the sanitized prefix share one string.
func FingerprintOf(p []byte) Fingerprint {
	h := uint64(fnvOffset64)
	for _, c := range p {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	n := min(len(p), fingerprintPrefixLen)
	var b strings.Builder
	b.Grow(16 + n)
	for shift := 60; shift >= 0; shift -= 4 {
		b.WriteByte(hexDigits[h>>uint(shift)&0xf])
	}
	for _, c := range p[:n] {
		if c < ' ' || c > '~' { // not printable ASCII
			c = '.'
		}
		b.WriteByte(c)
	}
	s := b.String()
	return Fingerprint{Hash: s[:16], Len: len(p), Prefix: s[16:]}
}

// FNV-1a, 64-bit (hash/fnv's New64a without the hasher allocation).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	hexDigits   = "0123456789abcdef"
)

// Entry is one slow query, with the per-stage breakdown that tells
// backbone descent apart from rib/extrib chain walks, occurrence
// scanning and shard fan-out.
type Entry struct {
	Time     time.Time `json:"time"`
	Endpoint string    `json:"endpoint"`
	Status   int       `json:"status"`
	// RequestID is the request's correlation id — the join key against
	// exported wide events and per-request log lines.
	RequestID string `json:"requestId,omitempty"`
	// Source is the serving layer that answered: scan, cache or
	// negfilter.
	Source string `json:"source,omitempty"`
	// DurationUs is the whole request's wall time in microseconds.
	DurationUs int64       `json:"durationUs"`
	Pattern    Fingerprint `json:"pattern"`
	// NodesChecked is the query's reported §4.1 work total; the Nodes
	// counters of Stages sum to it.
	NodesChecked int64          `json:"nodesChecked"`
	Truncated    bool           `json:"truncated"`
	Stages       []StageSummary `json:"stages"`
}

// Entry builds a slow-log entry from the trace's records and query
// identity. On a nil trace it returns a bare entry with no breakdown.
func (t *Trace) Entry(now time.Time, endpoint string, status int, elapsed time.Duration) Entry {
	e := Entry{Time: now, Endpoint: endpoint, Status: status, DurationUs: elapsed.Microseconds()}
	if t == nil {
		return e
	}
	t.mu.Lock()
	recs := append([]Record(nil), t.recs...)
	if t.endpoint != "" {
		e.Endpoint = t.endpoint
	}
	e.RequestID = t.requestID
	e.Source = t.source
	e.Pattern = t.pattern
	e.Truncated = t.truncated
	nodes, nodesSet := t.nodesChecked, t.nodesSet
	t.mu.Unlock()
	e.Stages = Summarize(recs)
	if nodesSet {
		e.NodesChecked = nodes
	} else {
		for _, s := range e.Stages {
			e.NodesChecked += s.Nodes
		}
	}
	return e
}

// SlowLog is a fixed-size ring buffer of slow-query entries. Writes are
// mutex-guarded but only happen for queries over the threshold, so the
// fast path never touches it.
type SlowLog struct {
	threshold time.Duration

	mu    sync.Mutex
	buf   []Entry
	next  int
	total int64
}

// NewSlowLog returns a ring of the given capacity (minimum 1) that
// retains queries at least threshold slow.
func NewSlowLog(size int, threshold time.Duration) *SlowLog {
	if size < 1 {
		size = 1
	}
	return &SlowLog{threshold: threshold, buf: make([]Entry, 0, size)}
}

// Threshold returns the slow-query cutoff.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Add records e, evicting the oldest entry once the ring is full.
func (l *SlowLog) Add(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		l.next = len(l.buf) % cap(l.buf)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
}

// Snapshot returns the retained entries, newest first, plus the total
// number of slow queries observed (including evicted ones).
func (l *SlowLog) Snapshot() ([]Entry, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, 0, len(l.buf))
	for i := 0; i < len(l.buf); i++ {
		// next-1 is the newest; walk backwards.
		j := (l.next - 1 - i + len(l.buf)) % len(l.buf)
		out = append(out, l.buf[j])
	}
	return out, l.total
}
