package store

import (
	"fmt"
	"sync"
	"testing"
)

func TestMapRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32}, {64, 64},
	} {
		if got := len(NewMap[int](tc.in).shards); got != tc.want {
			t.Errorf("NewMap(%d) has %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMapBasicOps(t *testing.T) {
	m := NewMap[string](8)
	if _, ok := m.Get("missing"); ok {
		t.Fatal("empty map returned a value")
	}
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
	if v, ok := m.Get("k42"); !ok || v != "v42" {
		t.Fatalf("Get(k42) = %q, %v", v, ok)
	}
	seen := map[string]bool{}
	m.Range(func(k string, v string) bool {
		seen[k] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("Range visited %d keys, want 100", len(seen))
	}
	// Early-exit Range.
	visits := 0
	m.Range(func(string, string) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Range ignored false return: %d visits", visits)
	}
}

func TestShardLockedAccessors(t *testing.T) {
	m := NewMap[int](4)
	sh := m.Shard("key")
	sh.Lock()
	sh.Put("key", 1)
	if v, ok := sh.Get("key"); !ok || v != 1 {
		t.Fatalf("shard Get = %d, %v", v, ok)
	}
	sh.Delete("key")
	if _, ok := sh.Get("key"); ok {
		t.Fatal("delete did not remove the key")
	}
	sh.Unlock()
}

func TestSameKeySameShard(t *testing.T) {
	m := NewMap[int](32)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i)
		if m.Shard(k) != m.Shard(k) {
			t.Fatalf("key %q routed to two shards", k)
		}
	}
}

func TestMapConcurrent(t *testing.T) {
	m := NewMap[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-%d", g, i)
				m.Put(k, i)
				if v, ok := m.Get(k); !ok || v != i {
					t.Errorf("lost write %s", k)
					return
				}
				m.Len()
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != 8*200 {
		t.Fatalf("Len = %d, want %d", m.Len(), 8*200)
	}
}
