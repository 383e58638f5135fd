package metrics

import "sync/atomic"

// ShardedCounter is a striped int64 counter for code paths where many
// goroutines bump the same statistic: each stripe lives on its own cache
// line, so concurrent writers on different stripes never invalidate each
// other (no false sharing), and reads sum the stripes. Writers pick a
// stripe with any cheap per-writer key — a shard index, a node id — via
// Add; Value folds the stripes.
//
// The zero value is not usable; construct with NewShardedCounter.
type ShardedCounter struct {
	stripes []paddedInt64
	mask    uint64
}

// cacheLine is the assumed coherence granularity. 64 bytes covers x86-64
// and most arm64 parts; on 128-byte-line hardware two stripes share a line,
// which costs performance, never correctness.
const cacheLine = 64

type paddedInt64 struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Mix64 is a murmur3-style finalizer: it spreads clustered keys
// (sequential node ids, relay-chosen flow-ids) uniformly over the word so
// masking off low bits yields balanced stripes. Shared by ShardedCounter
// and the relay's flow-table sharding.
func Mix64(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key
}

// CeilPow2 rounds n up to the next power of two (minimum 1), so a mask can
// replace a modulo in stripe selection.
func CeilPow2(n int) int {
	if n < 1 {
		return 1
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	return pow
}

// NewShardedCounter creates a counter with at least n stripes (rounded up
// to a power of two, minimum 1).
func NewShardedCounter(n int) *ShardedCounter {
	pow := CeilPow2(n)
	return &ShardedCounter{stripes: make([]paddedInt64, pow), mask: uint64(pow - 1)}
}

// Add adds delta to the stripe selected by key. Callers on a hot path
// should pass a key that is stable per goroutine or per shard so repeated
// Adds stay on one cache line.
func (c *ShardedCounter) Add(key uint64, delta int64) {
	c.stripes[Mix64(key)&c.mask].v.Add(delta)
}

// Value returns the sum over all stripes. It is a moment-in-time sum, not a
// snapshot: stripes are read one by one while writers proceed.
func (c *ShardedCounter) Value() int64 {
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}
