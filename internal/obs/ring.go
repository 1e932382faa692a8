package obs

import "sync"

// ring keeps the last len(buf) values pushed into it, safe for concurrent
// use. The tracer, the request log and the slow log each retain their
// records in one.
type ring[T any] struct {
	mu     sync.Mutex
	buf    []T
	next   int
	filled bool
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

// push retains v, evicting the oldest value when the ring is full.
func (r *ring[T]) push(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.filled = true
	}
	r.mu.Unlock()
}

// snapshot returns the retained values, most recent first (nil when empty).
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lenLocked()
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out
}

// len returns the number of retained values.
func (r *ring[T]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *ring[T]) lenLocked() int {
	if r.filled {
		return len(r.buf)
	}
	return r.next
}
