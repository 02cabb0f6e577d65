package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGetUpdate(t *testing.T) {
	c := New[string, int](3)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("update lost: %d", v)
	}
	if c.Len() != 2 || c.Cap() != 3 {
		t.Fatalf("len %d cap %d", c.Len(), c.Cap())
	}
}

// held lists the keys among keys that c stores. Get marks each used, so
// callers check eviction only after the Puts under test.
func held(c *Cache[int, int], keys ...int) string {
	var out []int
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			out = append(out, k)
		}
	}
	return fmt.Sprint(out)
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Get(1) // 2 is now the LRU
	c.Put(3, 3)
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if got := held(c, 1, 2, 3); got != "[1 3]" {
		t.Fatalf("held keys %s, want [1 3]", got)
	}
}

func TestPutRefreshesRecency(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(1, 11) // re-Put makes 1 the MRU
	c.Put(3, 3)
	if got := held(c, 1, 2, 3); got != "[1 3]" {
		t.Fatalf("held keys %s, want [1 3]", got)
	}
	if v, _ := c.Get(1); v != 11 {
		t.Fatalf("Get(1) = %d, want 11", v)
	}
}

func TestCapacityClamped(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if got := held(c, 1, 2); got != "[2]" {
		t.Fatalf("cap-1 cache holds keys %s, want [2]", got)
	}
}

func TestChurnKeepsListConsistent(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 1000; i++ {
		c.Put(i%13, i)
		c.Get(i % 7)
		if c.Len() > 8 {
			t.Fatalf("len %d exceeds cap", c.Len())
		}
	}
	// Walk the list both ways and compare with the map size.
	n := 0
	for p := c.head; p != nil; p = p.next {
		n++
	}
	if n != c.Len() {
		t.Fatalf("forward walk %d != len %d", n, c.Len())
	}
	n = 0
	for p := c.tail; p != nil; p = p.prev {
		n++
	}
	if n != c.Len() {
		t.Fatalf("backward walk %d != len %d", n, c.Len())
	}
}

// TestParallelGetPutEviction hammers a mutex-wrapped cache — the locking
// discipline every user of this package follows — from many goroutines at a
// capacity small enough that most Puts evict. Under -race this checks the
// eviction path's list surgery never escapes the caller's critical section;
// afterwards the list is walked for consistency like TestChurnKeepsListConsistent.
func TestParallelGetPutEviction(t *testing.T) {
	const (
		capacity   = 8
		goroutines = 8
		ops        = 2000
	)
	var mu sync.Mutex
	c := New[int, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (g*ops + i) % 29
				mu.Lock()
				if i%3 == 0 {
					if v, ok := c.Get(k); ok && v%29 != k {
						t.Errorf("key %d holds value %d", k, v)
					}
				} else {
					c.Put(k, k+29*g)
				}
				if c.Len() > capacity {
					t.Errorf("len %d exceeds cap %d", c.Len(), capacity)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if c.Len() != capacity {
		t.Fatalf("len = %d after saturating churn, want %d", c.Len(), capacity)
	}
	n := 0
	for p := c.head; p != nil; p = p.next {
		n++
	}
	if n != c.Len() {
		t.Fatalf("forward walk %d != len %d", n, c.Len())
	}
	n = 0
	for p := c.tail; p != nil; p = p.prev {
		n++
	}
	if n != c.Len() {
		t.Fatalf("backward walk %d != len %d", n, c.Len())
	}
}
