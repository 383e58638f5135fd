package transport

import "sync/atomic"

// DefaultSlabSize is the egress slab capacity handed out by a SlabPool
// built with size 0: big enough that a relay shard's bursts, large ones
// included, fill one slab before it rolls, small enough that a handful of
// in-flight slabs per shard stay cache-resident.
const DefaultSlabSize = 128 << 10

// SlabPool hands out refcounted egress slabs: append-only buffers that a
// producer fills with wire frames and hands to transports by reference
// (EnqueueOwned / overlay SendOwned) instead of copying into per-frame
// queue buffers. The pool's free list is bounded; slabs released when it
// is full fall to the GC. Outstanding counts slabs currently held by
// anyone — the leak gauge the ownership tests pin at zero after every
// shutdown and shed path.
type SlabPool struct {
	size        int
	free        chan *Slab
	outstanding atomic.Int64
}

// NewSlabPool creates a pool of slabs with the given capacity (0 →
// DefaultSlabSize) keeping at most depth free slabs (0 → 16).
func NewSlabPool(size, depth int) *SlabPool {
	if size <= 0 {
		size = DefaultSlabSize
	}
	if depth <= 0 {
		depth = 16
	}
	return &SlabPool{size: size, free: make(chan *Slab, depth)}
}

// Slab is one refcounted egress buffer. The producer appends frames to
// Buf (or to its own copy of the slice header, keeping its writes off the
// line Release hits), Retains once per hand-off that outlives its own use,
// and Releases its own reference when done framing; every consumer (a
// transport's owned path, or the fallback copy path) releases exactly
// once. The last release returns the slab to its pool.
type Slab struct {
	Buf  []byte
	pool *SlabPool
	refs atomic.Int32

	// ReleaseFn is Release pre-bound at construction: handing a method
	// value to a transport per send would allocate a fresh closure each
	// time, which the 0 allocs/op egress gate forbids.
	ReleaseFn func()
}

// Get returns a slab with refs=1 and an empty Buf whose capacity is at
// least minCap. Requests beyond the pool's slab size get a dedicated
// oversized slab that is dropped (not pooled) on final release.
func (p *SlabPool) Get(minCap int) *Slab {
	p.outstanding.Add(1)
	if minCap <= p.size {
		select {
		case s := <-p.free:
			s.refs.Store(1)
			s.Buf = s.Buf[:0]
			return s
		default:
		}
	}
	c := p.size
	if minCap > c {
		c = minCap
	}
	s := &Slab{Buf: make([]byte, 0, c), pool: p}
	s.ReleaseFn = s.Release
	s.refs.Store(1)
	return s
}

// Outstanding reports how many slabs are currently live (handed out and
// not yet fully released) — the ownership-leak gauge.
func (p *SlabPool) Outstanding() int64 { return p.outstanding.Load() }

// Retain adds a reference for a hand-off that will be released
// independently of the caller's own reference.
func (s *Slab) Retain() { s.refs.Add(1) }

// Release drops one reference; the last one returns the slab to its pool
// (or to the GC, if the free list is full or the slab is oversized).
func (s *Slab) Release() {
	if n := s.refs.Add(-1); n == 0 {
		p := s.pool
		p.outstanding.Add(-1)
		if cap(s.Buf) == p.size {
			select {
			case p.free <- s:
			default:
			}
		}
	} else if n < 0 {
		panic("transport: slab over-released")
	}
}
