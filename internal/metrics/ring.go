package metrics

import "iter"

// Ring keeps the newest entries pushed into it, up to a fixed capacity: a
// push into a full ring overwrites the oldest entry and counts it in
// Dropped. It has one writer at a time (its owner's goroutine, or its
// owner's lock). It allocates once, its whole capacity, at the first push.
type Ring[T any] struct {
	buf     []T
	limit   int
	next    int // once full: the oldest entry, the next to overwrite
	dropped int64
}

// NewRing returns an empty ring of the given capacity; it panics below 1.
func NewRing[T any](capacity int) Ring[T] {
	if capacity < 1 {
		panic("metrics: ring capacity below 1")
	}
	return Ring[T]{limit: capacity}
}

// Push appends v, overwriting the oldest entry once the ring is full.
func (r *Ring[T]) Push(v T) {
	if r.buf == nil {
		r.buf = make([]T, 0, r.limit)
	}
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.limit
	r.dropped++
}

// All yields the entries the ring holds, oldest first.
func (r *Ring[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		for _, part := range [2][]T{r.buf[r.next:], r.buf[:r.next]} {
			for _, v := range part {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// Dropped counts the entries overwritten since the ring was made.
func (r *Ring[T]) Dropped() int64 { return r.dropped }
