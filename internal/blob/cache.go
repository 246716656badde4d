package blob

import (
	"sync"
	"sync/atomic"
)

// cache is the file tier's byte cache: one map under one RWMutex,
// evicting by SIEVE (Zhang et al., NSDI '24) and admitting by read
// frequency.
//
// A hit takes the read lock and sets its entry's visited bit; nothing
// moves, so concurrent readers never queue behind list surgery.
// Eviction walks a hand from the oldest entry toward the newest,
// clearing visited bits as it passes, and evicts the first entry whose
// bit is already clear. A miss is kept only in free room, or in place of
// the entry under the hand when its blob has been read more often
// (blobMeta.reads), so a cold video never displaces a hot one.
//
// Evicted bytes are dropped, never recycled: a handler may still be
// writing them to a socket.
type cache struct {
	cap  int64 // byte budget
	max  int64 // bound on one entry: min(chunk size, budget)
	sink Telemetry

	mu      sync.RWMutex
	entries map[string]*entry
	bytes   int64
	// head is the newest entry and tail the oldest; hand is the entry
	// the next eviction walk starts from (nil = the tail).
	head, tail, hand *entry
}

type entry struct {
	hash         string
	b            []byte
	meta         *blobMeta // whose read count admission compares
	visited      atomic.Bool
	newer, older *entry
}

func newCache(capacity, maxEntry int64, sink Telemetry) *cache {
	return &cache{cap: capacity, max: min(maxEntry, capacity), sink: sink, entries: map[string]*entry{}}
}

// get returns the cached bytes, marking them visited and counting a hit.
// A miss is the caller's to count: only it knows whether it serves the
// read some other way.
func (c *cache) get(hash string) ([]byte, bool) {
	c.mu.RLock()
	e, ok := c.entries[hash]
	if ok && !e.visited.Load() {
		e.visited.Store(true)
	}
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	c.sinkHit(len(e.b))
	return e.b, true
}

// admits reports whether a missed blob of size bytes, read reads times,
// should be read into the cache: into free room, or in place of the
// entry the hand would evict next when that has been read less. A blob
// already resident needs no read.
func (c *cache) admits(hash string, size int64, reads uint32) bool {
	if size > c.max {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[hash]; ok {
		return false
	}
	if c.bytes+size <= c.cap {
		return true
	}
	return reads > 0 && reads > c.victim().meta.reads.Load()
}

// put inserts b as the newest entry, evicting from the hand until it
// fits. Callers put only what admits accepted.
func (c *cache) put(hash string, meta *blobMeta, b []byte) {
	size := int64(len(b))
	if size > c.max {
		return
	}
	c.mu.Lock()
	if _, ok := c.entries[hash]; ok {
		c.mu.Unlock()
		return
	}
	evicted, freed := 0, int64(0)
	for c.bytes+size > c.cap {
		v := c.victim()
		c.drop(v)
		evicted++
		freed += int64(len(v.b))
	}
	e := &entry{hash: hash, b: b, meta: meta, older: c.head}
	if c.head != nil {
		c.head.newer = e
	} else {
		c.tail = e
	}
	c.head = e
	c.entries[hash] = e
	c.bytes += size
	c.mu.Unlock()
	c.sinkEvict(evicted, freed)
}

// victim moves the hand to the entry SIEVE evicts next: past every
// visited entry, clearing its bit, to the first one not read since the
// hand last passed it. Caller holds mu on a non-empty cache.
func (c *cache) victim() *entry {
	e := c.hand
	if e == nil {
		e = c.tail
	}
	for e.visited.Load() {
		e.visited.Store(false)
		if e = e.newer; e == nil {
			e = c.tail
		}
	}
	c.hand = e
	return e
}

// drop unlinks e, moving the hand past it. Caller holds mu.
func (c *cache) drop(e *entry) {
	if c.hand == e {
		c.hand = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.head = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.tail = e.newer
	}
	delete(c.entries, e.hash)
	c.bytes -= int64(len(e.b))
}

// remove drops a blob from the cache (Discard path).
func (c *cache) remove(hash string) {
	c.mu.Lock()
	if e, ok := c.entries[hash]; ok {
		c.drop(e)
	}
	c.mu.Unlock()
}

// stats reports resident entries and bytes.
func (c *cache) stats() (entries int, bytes int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries), c.bytes
}
