package rescache

import (
	"fmt"
	"sync"
	"testing"
)

// put stores value under k at the cache's current epoch, replacing what
// was there.
func put(c *Cache, k Key, value any, cost int64, scanned bool) {
	c.Update(k, c.Epoch(), func(any) (any, int64, bool) { return value, cost, scanned })
}

func has(c *Cache, k Key) bool {
	_, ok := c.Get(k)
	return ok
}

func TestGetPut(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 4})
	k := Key("acgt")
	if has(c, k) {
		t.Fatal("hit on empty cache")
	}
	put(c, k, "value", 100, false)
	v, ok := c.Get(k)
	if !ok || v.(string) != "value" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if has(c, "acgta") {
		t.Fatal("hit on a different pattern")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
	// An update sees the stored value and replaces value and cost.
	c.Update(k, c.Epoch(), func(old any) (any, int64, bool) {
		if old.(string) != "value" {
			t.Errorf("merge saw %v, want the stored value", old)
		}
		return old.(string) + "2", 50, false
	})
	if v, _ := c.Get(k); v.(string) != "value2" {
		t.Fatalf("merged value = %v", v)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 50 {
		t.Fatalf("stats after merge = %+v", st)
	}
}

// TestByteBudgetEviction: a shard over its budget slice evicts from the
// LRU tail, and the evicted key misses afterwards.
func TestByteBudgetEviction(t *testing.T) {
	// One shard, 100-byte budget.
	c := New(Config{MaxBytes: 100, Shards: 1})
	for i := 0; i < 10; i++ {
		put(c, Key(fmt.Sprintf("p%d", i)), i, 30, false)
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	// The most recent insert survived; the oldest did not.
	if !has(c, "p9") {
		t.Fatal("most recent entry evicted")
	}
	if has(c, "p0") {
		t.Fatal("oldest entry survived a full wrap of the budget")
	}
	// Oversized values are not admitted at all, and leave what the key
	// held in place.
	put(c, "huge", 0, 1000, true)
	put(c, "p9", "grown", 1000, true)
	if has(c, "huge") {
		t.Fatal("entry over the shard budget admitted")
	}
	if v, ok := c.Get("p9"); !ok || v.(int) != 9 {
		t.Fatalf("refused update disturbed the entry: %v, %v", v, ok)
	}
}

// TestLRUOrdering: a cache holding only cheap entries is a plain LRU —
// touching an entry via Get protects it from the next eviction round.
func TestLRUOrdering(t *testing.T) {
	c := New(Config{MaxBytes: 90, Shards: 1})
	put(c, "a", 1, 30, false)
	put(c, "b", 2, 30, false)
	put(c, "c", 3, 30, false)
	c.Get("a") // refresh a; b is now the LRU tail
	put(c, "d", 4, 30, false)
	if !has(c, "a") {
		t.Fatal("recently used entry evicted")
	}
	if has(c, "b") {
		t.Fatal("least recently used entry survived")
	}
	put(c, "e", 5, 30, false) // c is the tail now: a was touched again above
	if has(c, "c") || !has(c, "a") || !has(c, "d") || !has(c, "e") {
		t.Fatal("second eviction did not take the LRU tail")
	}
}

// TestCheapEvictedBeforeScanned: however stale its last use, a scanned
// entry outlives every cheap one; among scanned entries eviction is LRU,
// and a cheap insert into a cache full of scanned entries evicts itself.
func TestCheapEvictedBeforeScanned(t *testing.T) {
	c := New(Config{MaxBytes: 90, Shards: 1})
	put(c, "scan1", 1, 30, true) // the least recently used of all
	put(c, "cheap1", 2, 30, false)
	put(c, "cheap2", 3, 30, false)
	put(c, "cheap3", 4, 30, false)
	if !has(c, "scan1") || has(c, "cheap1") || !has(c, "cheap2") {
		t.Fatal("over budget, the oldest cheap entry should go and the scanned one stay")
	}
	put(c, "scan2", 5, 30, true)
	put(c, "scan3", 6, 30, true)
	if has(c, "cheap2") || has(c, "cheap3") {
		t.Fatal("cheap entries survived while scanned ones filled the budget")
	}
	put(c, "cheap4", 7, 30, false)
	if has(c, "cheap4") || !has(c, "scan1") || !has(c, "scan2") || !has(c, "scan3") {
		t.Fatal("a cheap insert pushed a scanned entry out")
	}
	c.Get("scan1")
	put(c, "scan4", 8, 30, true)
	if has(c, "scan2") || !has(c, "scan1") {
		t.Fatal("scanned entries are not LRU among themselves")
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 90 || st.Evictions != 5 {
		t.Fatalf("stats = %+v, want 3 entries, 90 bytes, 5 evictions", st)
	}
}

// TestClassChangeAndAccounting: an entry that gains scan knowledge
// moves to the scanned class, and the byte count follows every merge
// exactly.
func TestClassChangeAndAccounting(t *testing.T) {
	c := New(Config{MaxBytes: 100, Shards: 1})
	put(c, "a", 1, 20, false)
	put(c, "b", 2, 20, false)
	put(c, "a", 3, 50, true) // a learns a position list
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 70 {
		t.Fatalf("stats after growth = %+v, want 2 entries, 70 bytes", st)
	}
	put(c, "c", 4, 20, false)
	put(c, "d", 5, 20, false) // 110 bytes: b is the oldest cheap entry
	if has(c, "b") || !has(c, "a") {
		t.Fatal("the entry that gained scan knowledge was not protected")
	}
	put(c, "c", 6, 10, false) // an entry may shrink too
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 80 || st.Evictions != 1 {
		t.Fatalf("stats after shrink = %+v, want 3 entries, 80 bytes, 1 eviction", st)
	}
}

// TestEpochInvalidation: BumpEpoch makes every prior entry miss, and the
// stale entries are collected lazily by the Gets that find them.
func TestEpochInvalidation(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 2})
	for i := 0; i < 8; i++ {
		put(c, Key(fmt.Sprintf("p%d", i)), i, 10, i%2 == 0)
	}
	c.BumpEpoch()
	for i := 0; i < 8; i++ {
		if has(c, Key(fmt.Sprintf("p%d", i))) {
			t.Fatalf("entry p%d survived the epoch bump", i)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale entries not collected: %+v", st)
	}
	// New inserts under the new epoch hit normally.
	put(c, "fresh", 1, 10, false)
	if !has(c, "fresh") {
		t.Fatal("post-bump insert missing")
	}
}

// TestUpdateAcrossBump: an update carrying the epoch of a lookup made
// before BumpEpoch is dropped; one that finds a stale entry starts from
// nothing; and eviction takes stale scanned entries before live cheap
// ones.
func TestUpdateAcrossBump(t *testing.T) {
	c := New(Config{MaxBytes: 90, Shards: 1})
	put(c, "old", "old text", 30, true)
	put(c, "old2", "old text", 30, true)
	epoch := c.Epoch()
	c.BumpEpoch()
	c.Update("late", epoch, func(any) (any, int64, bool) {
		t.Error("merge ran for an update begun before the bump")
		return nil, 1, false
	})
	if has(c, "late") {
		t.Fatal("an answer computed before the bump was stored after it")
	}
	c.Update("old2", c.Epoch(), func(old any) (any, int64, bool) {
		if old != nil {
			t.Errorf("merge saw stale value %v", old)
		}
		return "new text", 30, false
	})
	put(c, "x", 1, 30, false)
	put(c, "y", 2, 30, false) // over budget: the stale scanned entry goes first
	if !has(c, "old2") || !has(c, "x") || !has(c, "y") {
		t.Fatal("a live entry was evicted while a stale one remained")
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 90 {
		t.Fatalf("stats = %+v, want the 3 live entries, 90 bytes", st)
	}
}

// TestDerivedShardCount: with no explicit count the budget decides, so a
// small budget is one usable slice rather than sixteen useless ones.
func TestDerivedShardCount(t *testing.T) {
	for _, tc := range []struct {
		maxBytes int64
		shards   int
	}{
		{1, 1}, {64 << 10, 1}, {128<<10 - 1, 1}, {128 << 10, 2}, {1<<20 - 1, 8}, {1 << 20, 16}, {0, 16},
	} {
		if c := New(Config{MaxBytes: tc.maxBytes}); len(c.shards) != tc.shards {
			t.Errorf("MaxBytes %d: %d shards, want %d", tc.maxBytes, len(c.shards), tc.shards)
		}
	}
	c := New(Config{MaxBytes: 64 << 10})
	put(c, "p", "a 500-position answer", 4200, true)
	if !has(c, "p") {
		t.Fatal("a 4 KiB entry was refused by a 64 KiB cache")
	}
	if c := New(Config{MaxBytes: 64 << 10, Shards: 3}); len(c.shards) != 4 {
		t.Fatalf("explicit Shards 3: %d shards, want 4", len(c.shards))
	}
}

// TestConcurrentAccess hammers all operations from many goroutines; run
// with -race.
func TestConcurrentAccess(t *testing.T) {
	c := New(Config{MaxBytes: 10 << 10, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key(fmt.Sprintf("p%d", i%32))
				switch i % 4 {
				case 0:
					put(c, k, i, int64(16+i%64), w%2 == 0)
				case 3:
					if w == 0 && i%100 == 0 {
						c.BumpEpoch()
					}
					c.Stats()
				default:
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	var entries, bytes int64
	for _, s := range c.shards {
		entries += int64(len(s.items))
		bytes += s.bytes
		if n := s.cheap.Len() + s.scanned.Len(); n != len(s.items) {
			t.Fatalf("shard lists hold %d entries, map %d", n, len(s.items))
		}
	}
	if st.Entries != entries || st.Bytes != bytes {
		t.Fatalf("stats %+v disagree with the shards: %d entries, %d bytes", st, entries, bytes)
	}
}
