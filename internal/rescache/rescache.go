// Package rescache is a sharded, byte-budgeted, two-class LRU. It is the
// storage half of the serving layer's result cache: the key is the query
// pattern alone, the value is opaque (the public package stores what it
// knows about the pattern there, as an immutable snapshot), and every
// change to an entry goes through Update, which merges under the shard
// lock and reports the entry's byte cost and cost class.
//
// Eviction is cost-class aware with no knob and no timer. An entry is
// either cheap (everything in it can be recomputed by a pattern descent,
// about a microsecond) or scanned (it holds something only an O(n)
// backbone scan can recompute, milliseconds). A shard over its budget
// evicts its least-recently-used cheap entry, and touches a scanned
// entry only when no cheap one is left. A cache that holds only cheap
// entries is therefore a plain LRU, and a cheap answer never pushes a
// scanned one out.
//
// Invalidation is epoch-based rather than by enumeration: the cache
// carries a global epoch counter, every entry is stamped with the epoch
// its contents were computed under, and BumpEpoch makes every existing
// entry stale in O(1). The caller reads Epoch before it looks a key up
// and hands that value to Update; an Update whose epoch has since moved
// is dropped, so an answer computed on the old text is never stored as
// current, whenever its insert lands. Stale entries are collected
// lazily — by the Get or Update that finds one, and ahead of any live
// entry when the shard evicts.
//
// Sharding bounds lock contention: the key hashes (FNV-1a) to one of a
// power-of-two number of shards, each with its own mutex, map and LRU
// lists, and its own slice of the byte budget.
package rescache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies an entry: the query pattern's bytes.
type Key string

// Config tunes a Cache.
type Config struct {
	// MaxBytes is the total byte budget across all shards; <= 0 picks
	// DefaultMaxBytes.
	MaxBytes int64
	// Shards is the shard count, rounded up to a power of two; <= 0
	// derives it from the budget: DefaultShards, halved until every
	// shard's slice is at least MinShardBytes (one shard below twice
	// that).
	Shards int
}

// DefaultMaxBytes is the byte budget when Config.MaxBytes <= 0 (64 MiB).
const DefaultMaxBytes = 64 << 20

// DefaultShards is the largest shard count Config.Shards <= 0 derives.
const DefaultShards = 16

// MinShardBytes is the smallest budget slice a derived shard count
// leaves each shard. An entry larger than its shard's slice is refused,
// so the slice bounds the largest cacheable answer (about 8 000
// positions at 64 KiB).
const MinShardBytes = 64 << 10

// Stats is a point-in-time view of the cache's occupancy counters.
type Stats struct {
	Entries   int64 // live entries across all shards
	Bytes     int64 // bytes charged against the budget
	Evictions int64 // entries evicted by the byte budget (not staleness)
	Epoch     uint64
}

type entry struct {
	key   Key
	value any
	cost  int64
	epoch uint64
	in    *list.List // the shard's cheap or scanned list, whichever holds it
}

type shard struct {
	mu    sync.Mutex
	items map[Key]*list.Element
	// Two LRU orders, front = most recent: the entries a descent can
	// rebuild, and the ones that took a scan.
	cheap, scanned *list.List
	bytes          int64
}

// Cache is a sharded epoch-invalidated two-class LRU. The zero value is
// not usable; construct with New.
type Cache struct {
	shards    []*shard
	mask      uint64
	perShard  int64 // byte budget per shard
	epoch     atomic.Uint64
	entries   atomic.Int64
	bytes     atomic.Int64
	evictions atomic.Int64
}

// New returns an empty cache with the given budget and shard count.
func New(cfg Config) *Cache {
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	// Power of two, so shard selection is a mask.
	pow := 1
	if cfg.Shards > 0 {
		for pow < cfg.Shards {
			pow <<= 1
		}
	} else {
		for pow < DefaultShards && maxBytes/int64(2*pow) >= MinShardBytes {
			pow <<= 1
		}
	}
	c := &Cache{
		shards:   make([]*shard, pow),
		mask:     uint64(pow - 1),
		perShard: max(maxBytes/int64(pow), 1),
	}
	for i := range c.shards {
		c.shards[i] = &shard{items: make(map[Key]*list.Element), cheap: list.New(), scanned: list.New()}
	}
	return c
}

// shardFor hashes the key's bytes with FNV-1a.
func (c *Cache) shardFor(k Key) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return c.shards[h&c.mask]
}

// Get returns the value stored for k, if present and current, and marks
// it most recently used in its class. An entry stamped with an older
// epoch is removed on the spot and reported as a miss — BumpEpoch
// invalidation is collected lazily, here.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	// Load the epoch under the shard lock so the staleness check sees
	// any BumpEpoch that completed before the lookup; loading it
	// earlier could return an entry invalidated an instant before.
	if e.epoch != c.epoch.Load() {
		c.remove(s, el)
		return nil, false
	}
	e.in.MoveToFront(el)
	return e.value, true
}

// Update merges into k's entry under the shard lock. epoch is the value
// Epoch returned before the caller looked k up and computed what it is
// about to merge; if the cache's epoch has moved since, that knowledge
// is about a text that is gone and the call does nothing. Otherwise
// merge receives the current value (nil when k has no current entry)
// and returns the value to store — a new one, since readers may still
// hold the old — its byte cost, and whether it now holds scan knowledge.
// The entry becomes the most recent of its class, and the shard then
// evicts until it fits its budget slice: stale entries first, then
// cheap ones by LRU, then scanned ones by LRU. A value costlier than a
// whole shard's slice is not admitted and leaves the entry as it was.
// merge runs with the shard locked, so it must not call into the cache.
func (c *Cache) Update(k Key, epoch uint64, merge func(old any) (value any, cost int64, scanned bool)) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.epoch.Load() != epoch {
		return
	}
	el := s.items[k]
	if el != nil && el.Value.(*entry).epoch != epoch {
		c.remove(s, el)
		el = nil
	}
	var old any
	if el != nil {
		old = el.Value.(*entry).value
	}
	value, cost, scanned := merge(old)
	cost = max(cost, 1)
	if cost > c.perShard {
		return // would evict the entire shard for one entry
	}
	if el != nil {
		c.remove(s, el)
	}
	in := s.cheap
	if scanned {
		in = s.scanned
	}
	s.items[k] = in.PushFront(&entry{key: k, value: value, cost: cost, epoch: epoch, in: in})
	s.bytes += cost
	c.bytes.Add(cost)
	c.entries.Add(1)
	for s.bytes > c.perShard {
		// Stale entries are never touched again, so any there are sit at
		// the back of their list.
		victim := s.scanned.Back()
		if victim == nil || victim.Value.(*entry).epoch == epoch {
			if cheap := s.cheap.Back(); cheap != nil {
				victim = cheap
			}
		}
		c.remove(s, victim)
		c.evictions.Add(1)
	}
}

// remove unlinks el from the shard and settles the occupancy counters;
// the caller holds the shard lock.
func (c *Cache) remove(s *shard, el *list.Element) {
	e := el.Value.(*entry)
	delete(s.items, e.key)
	e.in.Remove(el)
	s.bytes -= e.cost
	c.bytes.Add(-e.cost)
	c.entries.Add(-1)
}

// BumpEpoch invalidates every current entry in O(1): subsequent Gets
// see the epoch mismatch and treat the entries as absent (removing them
// lazily), and Updates begun under the old epoch are dropped. Use it
// whenever the indexed text changes.
func (c *Cache) BumpEpoch() { c.epoch.Add(1) }

// Epoch returns the current epoch.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// Stats returns the cache's occupancy counters. Entries and Bytes may
// include stale entries not yet lazily collected.
func (c *Cache) Stats() Stats {
	return Stats{
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
		Evictions: c.evictions.Load(),
		Epoch:     c.epoch.Load(),
	}
}
