package telemetry

import (
	"math"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the log2 bucketing at the edges:
// 0, 1, powers of two and 2^i - 1.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{(1 << 20) - 1, 20},
		{1 << 20, 21},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Fatalf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		if c.bucket < histBuckets-1 {
			if ub := upperBound(c.bucket); c.v > ub {
				t.Fatalf("value %d above its bucket's upper bound %d", c.v, ub)
			}
		}
	}
	// Each boundary value lands in a bucket whose snapshot LE covers it.
	var h Histogram
	for _, c := range cases[:len(cases)-1] {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Min != 0 || s.Max != (1<<20) {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, 1<<20)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

// TestHistogramNegativeClamped verifies negatives clamp to the zero
// bucket rather than corrupting state.
func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Fatalf("negative observation mishandled: %+v", s)
	}
}

// TestHistogramMinMaxRace hammers the min/max CAS loops from many
// goroutines; run with -race. Interleaved ascending and descending
// writers force both loops to retry.
func TestHistogramMinMaxRace(t *testing.T) {
	var h Histogram
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if w%2 == 0 {
					h.Observe(int64(i))
				} else {
					h.Observe(int64(perWriter - 1 - i))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := h.Snapshot()
			if s.Count > 0 && (s.Min < 0 || s.Max >= perWriter) {
				t.Errorf("mid-write snapshot out of range: min=%d max=%d", s.Min, s.Max)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	if s.Min != 0 || s.Max != perWriter-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, perWriter-1)
	}
}

// TestHistogramMerge verifies Merge folds counts, sums, buckets and
// min/max, including merging into a fresh histogram and from an empty
// one.
func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for _, v := range []int64{1, 5, 9} {
		a.Observe(v)
	}
	for _, v := range []int64{0, 100} {
		b.Observe(v)
	}
	a.Merge(&b)
	s := a.Snapshot()
	if s.Count != 5 || s.Sum != 115 {
		t.Fatalf("merged count/sum = %d/%d, want 5/115", s.Count, s.Sum)
	}
	if s.Min != 0 || s.Max != 100 {
		t.Fatalf("merged min/max = %d/%d, want 0/100", s.Min, s.Max)
	}

	var empty, into Histogram
	into.Merge(&empty) // no-op
	if into.Snapshot().Count != 0 {
		t.Fatal("merging empty changed state")
	}
	into.Merge(nil) // nil-safe
	into.Merge(&a)
	if got := into.Snapshot(); got.Count != 5 || got.Min != 0 || got.Max != 100 {
		t.Fatalf("merge into fresh = %+v", got)
	}
}

// TestHistogramMergeDuringWrites merges while one writer keeps
// observing into the source. Merge reads the source's fields one atomic
// load at a time, so the writer may complete any number of Observes
// between two of those loads and the merged count and bucket total need
// not agree with each other. What does hold, every field being
// monotone: each lies between the source's Count() read before the
// Merge and the one read after it — the bucket total possibly one short
// of the former, for the single Observe that has bumped count but not
// yet its bucket. -race clean.
func TestHistogramMergeDuringWrites(t *testing.T) {
	var src Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				src.Observe(int64(i % 64))
			}
		}
	}()
	for i := 0; i < 100; i++ {
		var dst Histogram
		before := src.Count()
		dst.Merge(&src)
		after := src.Count()
		s := dst.Snapshot()
		var bucketTotal int64
		for _, b := range s.Buckets {
			if b.Count < 0 {
				t.Fatalf("negative bucket after merge: %+v", b)
			}
			bucketTotal += b.Count
		}
		if s.Count < before || s.Count > after {
			t.Fatalf("merged count %d outside the source's [%d, %d]", s.Count, before, after)
		}
		if bucketTotal < before-1 || bucketTotal > after {
			t.Fatalf("merged bucket total %d outside the source's [%d-1, %d]", bucketTotal, before, after)
		}
		if s.Sum < 0 || s.Min < 0 || s.Max < 0 {
			t.Fatalf("merged snapshot has a negative field: %+v", s)
		}
	}
	close(stop)
	wg.Wait()
}

// TestHistogramSnapshotDuringWrites takes snapshots under concurrent
// writes and checks internal consistency bounds.
func TestHistogramSnapshotDuringWrites(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const writers = 4
	const perWriter = 5000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	for i := 0; i < 500; i++ {
		s := h.Snapshot()
		if s.Count < 0 || s.Sum < 0 {
			t.Fatalf("negative totals mid-write: %+v", s)
		}
		if s.Count > 0 && s.Mean < 0 {
			t.Fatalf("negative mean mid-write: %+v", s)
		}
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", s.Count, writers*perWriter)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Fatalf("quantiles out of order: %+v", s)
	}
}
