// Package lru implements a small fixed-capacity least-recently-used map
// (Cache, deliberately not safe for concurrent use) and the one
// goroutine-safe wrapper around it (SingleFlight: mutex, hit/miss counters
// and a single-flight group over misses). The estimate cache and the
// Section 1.2 statement-cache baseline are instantiations of SingleFlight.
package lru

// Cache maps K to V, keeping at most Cap entries and evicting the least
// recently used one on overflow. Get and Put both count as a use.
type Cache[K comparable, V any] struct {
	capacity   int
	entries    map[K]*node[K, V]
	head, tail *node[K, V] // head is the most recently used
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty cache holding at most capacity entries. Capacities
// below 1 are raised to 1.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{capacity: capacity, entries: make(map[K]*node[K, V])}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(n)
	return n.val, true
}

// Put stores v under k, marking it most recently used. When the insert
// overflows the capacity it evicts the least recently used entry.
func (c *Cache[K, V]) Put(k K, v V) {
	if n, ok := c.entries[k]; ok {
		n.val = v
		c.moveToFront(n)
		return
	}
	n := &node[K, V]{key: k, val: v}
	c.entries[k] = n
	c.pushFront(n)
	if len(c.entries) <= c.capacity {
		return
	}
	lru := c.tail
	c.unlink(lru)
	delete(c.entries, lru.key)
}

// Len returns the number of stored entries.
func (c *Cache[K, V]) Len() int { return len(c.entries) }

// Cap returns the capacity.
func (c *Cache[K, V]) Cap() int { return c.capacity }

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(n *node[K, V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
