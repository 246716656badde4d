package store

import "sync"

// DefaultShards is the shard count used when a Map is created with a
// non-positive count.
const DefaultShards = 16

// Map is a string-keyed map split across a power-of-two number of
// shards, each guarded by its own RWMutex. Keys are routed to shards by
// a 32-bit FNV-1a hash, so independent entities contend only when they
// hash to the same shard.
//
// Two usage styles compose: the one-shot accessors (Get, Put, Len,
// Range) lock internally, while multi-step critical sections take
// Shard(key), lock it, and use the shard's unlocked accessors.
type Map[V any] struct {
	mask   uint32
	shards []Shard[V]
}

// Shard is one lock-guarded slice of a Map. Its Get/Put/Delete do no
// locking of their own: the caller holds the shard's mutex for the span
// of the critical section.
type Shard[V any] struct {
	sync.RWMutex
	items map[string]V
	// pad spaces neighbouring shards onto separate cache lines so
	// uncontended locks do not false-share.
	_ [32]byte
}

// NewMap returns a Map with the shard count rounded up to a power of
// two (DefaultShards when n <= 0).
func NewMap[V any](n int) *Map[V] {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	m := &Map[V]{mask: uint32(size - 1), shards: make([]Shard[V], size)}
	for i := range m.shards {
		m.shards[i].items = make(map[string]V)
	}
	return m
}

// Shard returns the shard owning key. The caller locks it around the
// unlocked accessors.
func (m *Map[V]) Shard(key string) *Shard[V] {
	return &m.shards[fnv1a(key)&m.mask]
}

// Get returns the value under key in a locked shard.
func (m *Map[V]) Get(key string) (V, bool) {
	sh := m.Shard(key)
	sh.RLock()
	v, ok := sh.items[key]
	sh.RUnlock()
	return v, ok
}

// Put stores v under key in a locked shard.
func (m *Map[V]) Put(key string, v V) {
	sh := m.Shard(key)
	sh.Lock()
	sh.items[key] = v
	sh.Unlock()
}

// Len counts entries across all shards.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.RLock()
		n += len(sh.items)
		sh.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. Each shard is
// read-locked while it is walked; iteration order is unspecified.
func (m *Map[V]) Range(fn func(key string, v V) bool) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.RLock()
		for k, v := range sh.items {
			if !fn(k, v) {
				sh.RUnlock()
				return
			}
		}
		sh.RUnlock()
	}
}

// Get returns the value under key; the caller holds the shard's lock.
func (sh *Shard[V]) Get(key string) (V, bool) {
	v, ok := sh.items[key]
	return v, ok
}

// Put stores v under key; the caller holds the shard's lock.
func (sh *Shard[V]) Put(key string, v V) { sh.items[key] = v }

// Delete removes key; the caller holds the shard's lock.
func (sh *Shard[V]) Delete(key string) { delete(sh.items, key) }

// fnv1a is the 32-bit FNV-1a hash, inlined to avoid a hash.Hash
// allocation per lookup.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
