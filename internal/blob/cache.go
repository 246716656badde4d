package blob

import (
	"container/list"
	"sync"
)

// cacheShards splits the byte cache so concurrent readers of different
// blobs contend on different mutexes, mirroring store.Map's sharding.
const cacheShards = 16

// cache is the file tier's sharded LRU byte cache with doorkeeper
// admission: a blob is admitted only on its second recent miss, so a
// one-shot scan over many cold blobs cannot flush the resident hot set.
// Each shard owns capacity/cacheShards bytes and its own LRU list;
// entries never migrate between shards (hash routing is stable), so
// per-shard LRU approximates global LRU at 1/16th the lock contention.
type cache struct {
	shards [cacheShards]cacheShard
	mask   uint32
	sink   Telemetry
}

type cacheShard struct {
	mu  sync.Mutex
	cap int64
	// max bounds any single entry: an entry larger than the shard
	// capacity can never fit and must not purge the whole shard trying.
	max     int64
	bytes   int64
	entries map[string]*list.Element
	lru     *list.List // front = most recent
	// door is the doorkeeper: hashes seen missing once recently. A hit
	// here on the next miss admits the blob. Reset wholesale when it
	// grows past doorLimit — an O(1)-amortised stand-in for a decaying
	// bloom filter, good enough at this scale.
	door map[string]struct{}
	_    [32]byte // keep neighbouring shards off one cache line
}

// doorLimit bounds each shard's doorkeeper set before it is reset.
const doorLimit = 4096

type cacheEntry struct {
	hash string
	b    []byte
}

func newCache(capacity, maxEntry int64, sink Telemetry) *cache {
	c := &cache{mask: cacheShards - 1, sink: sink}
	per := capacity / cacheShards
	if per < maxEntry {
		per = maxEntry // always room for at least one full entry
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = per
		sh.max = maxEntry
		sh.entries = make(map[string]*list.Element)
		sh.lru = list.New()
		sh.door = make(map[string]struct{})
	}
	return c
}

func (c *cache) shard(hash string) *cacheShard {
	return &c.shards[fnv1a(hash)&c.mask]
}

// get returns the cached bytes and bumps recency. A miss marks the hash
// in the doorkeeper so the caller's follow-up admit succeeds.
func (c *cache) get(hash string) ([]byte, bool) {
	sh := c.shard(hash)
	sh.mu.Lock()
	if el, ok := sh.entries[hash]; ok {
		sh.lru.MoveToFront(el)
		b := el.Value.(*cacheEntry).b
		sh.mu.Unlock()
		c.sinkHit(len(b))
		return b, true
	}
	if len(sh.door) >= doorLimit {
		sh.door = make(map[string]struct{})
	}
	sh.door[hash] = struct{}{}
	sh.mu.Unlock()
	c.sinkMiss()
	return nil, false
}

// admit offers bytes to the cache. Without force it is doorkeeper-gated:
// only a hash that already missed recently is admitted, so single-touch
// blobs never displace the hot set. Admission evicts from the shard's
// LRU tail until the entry fits.
func (c *cache) admit(hash string, b []byte, force bool) {
	if int64(len(b)) > c.shards[0].max {
		return
	}
	sh := c.shard(hash)
	sh.mu.Lock()
	if _, ok := sh.entries[hash]; ok {
		sh.mu.Unlock()
		return
	}
	if !force {
		if _, seen := sh.door[hash]; !seen {
			sh.mu.Unlock()
			return
		}
	}
	delete(sh.door, hash)
	evicted, freed := 0, int64(0)
	for sh.bytes+int64(len(b)) > sh.cap {
		tail := sh.lru.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		sh.lru.Remove(tail)
		delete(sh.entries, ent.hash)
		sh.bytes -= int64(len(ent.b))
		evicted++
		freed += int64(len(ent.b))
	}
	sh.entries[hash] = sh.lru.PushFront(&cacheEntry{hash: hash, b: b})
	sh.bytes += int64(len(b))
	sh.mu.Unlock()
	c.sinkEvict(evicted, freed)
}

// remove drops a blob from the cache (Discard path).
func (c *cache) remove(hash string) {
	sh := c.shard(hash)
	sh.mu.Lock()
	if el, ok := sh.entries[hash]; ok {
		ent := el.Value.(*cacheEntry)
		sh.lru.Remove(el)
		delete(sh.entries, hash)
		sh.bytes -= int64(len(ent.b))
	}
	delete(sh.door, hash)
	sh.mu.Unlock()
}

// stats sums resident entries and bytes across shards.
func (c *cache) stats() (entries int, bytes int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		entries += len(sh.entries)
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return entries, bytes
}

// fnv1a is the 32-bit FNV-1a hash (same inlined form as
// internal/store), routing hashes to shards without an allocation.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
