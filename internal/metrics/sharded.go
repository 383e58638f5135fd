package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Counters live in blocks owned by whatever long-lived thing's activity
// they count, and every block is read one way, as a Snapshot. A Block has
// one writer goroutine, which bumps it with ++; a ShardedCounter takes
// atomic adds from any goroutine, each on its own cache-line stripe.

// Vocab names a block's counters: counter i is Vocab[i].
type Vocab []string

// NewVocab returns names as a vocabulary. It panics on an empty or repeated
// name: vocabularies are package-level tables, so a bad one fails at start.
func NewVocab(names ...string) Vocab {
	for i, n := range names {
		if n == "" || slices.Contains(names[:i], n) {
			panic(fmt.Sprintf("metrics: bad counter name %q in %q", n, names))
		}
	}
	return names
}

// Snapshot is one reading of a block: Values[i] is counter Names[i].
type Snapshot struct {
	Names  Vocab
	Values []int64
}

// Get returns the named counter. It panics on a name the reading does not
// have, so a misspelt name fails loudly instead of reading zero.
func (s Snapshot) Get(name string) int64 {
	if i := slices.Index(s.Names, name); i >= 0 {
		return s.Values[i]
	}
	panic("metrics: no counter " + name)
}

// Add returns the counter-wise sum of s and o: a name in both is summed, a
// name in o alone is appended, so readings of blocks with different
// vocabularies (a relay's shards and the node's own block) join into one.
func (s Snapshot) Add(o Snapshot) Snapshot {
	out := Snapshot{Names: slices.Clip(s.Names), Values: slices.Clone(s.Values)}
	for j, n := range o.Names {
		if i := slices.Index(out.Names, n); i >= 0 {
			out.Values[i] += o.Values[j]
		} else {
			out.Names, out.Values = append(out.Names, n), append(out.Values, o.Values[j])
		}
	}
	return out
}

// Sub returns s − o over the counters of s: the change between two readings.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	out := Snapshot{Names: s.Names, Values: slices.Clone(s.Values)}
	for j, n := range o.Names {
		if i := slices.Index(out.Names, n); i >= 0 {
			out.Values[i] -= o.Values[j]
		}
	}
	return out
}

// Each calls fn for every counter, in vocabulary order.
func (s Snapshot) Each(fn func(name string, v int64)) {
	for i, n := range s.Names {
		fn(n, s.Values[i])
	}
}

// String renders every counter as name=value: a log line that shows a newly
// named counter without its caller changing.
func (s Snapshot) String() string {
	var b strings.Builder
	s.Each(func(name string, v int64) { fmt.Fprintf(&b, "%s=%d ", name, v) })
	return strings.TrimSuffix(b.String(), " ")
}

// Block is a plain block: counter i of its vocabulary is Block[i]. Its one
// writer bumps it with ++; others read it through that writer (a relay
// shard's mailbox) or under a lock the writer holds.
type Block []int64

// Snapshot copies the block under v's names.
func (b Block) Snapshot(v Vocab) Snapshot {
	return Snapshot{Names: v, Values: slices.Clone([]int64(b))}
}

// ShardedCounter is a striped block: each stripe holds every counter on
// cache lines of its own, so concurrent writers on different stripes never
// invalidate each other, and reads sum the stripes. A writer's key (a node
// id, a sequence number) picks its stripe, modulo the stripe count.
type ShardedCounter struct {
	names  Vocab
	cells  []atomic.Int64 // stripe k is cells[k*stride:][:len(names)]
	stride int
	mask   uint64
}

// cacheLine is the assumed coherence granularity. 64 bytes covers x86-64
// and most arm64 parts; on 128-byte-line hardware two stripes share a line,
// which costs performance, never correctness.
const cacheLine = 64

// Mix64 is a murmur3-style finalizer: it spreads clustered keys
// (sequential node ids, relay-chosen flow-ids) uniformly over the word so
// masking off low bits yields balanced stripes (the relay's flow-table
// shards).
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

// NewShardedCounter creates a block of v's counters with at least n stripes
// (a power of two). atomic.Int64 keeps every cell 8-byte aligned, also where
// int is 32 bits wide.
func NewShardedCounter(n int, v Vocab) *ShardedCounter {
	pow, perLine := CeilPow2(n), cacheLine/8
	stride := max(1, (len(v)+perLine-1)/perLine) * perLine
	return &ShardedCounter{names: v, cells: make([]atomic.Int64, pow*stride), stride: stride, mask: uint64(pow - 1)}
}

// Add adds delta to counter i on the stripe key selects. Sequential keys
// take distinct stripes until they wrap.
func (c *ShardedCounter) Add(key uint64, i int, delta int64) {
	c.cells[int(key&c.mask)*c.stride+i].Add(delta)
}

// Snapshot reads every counter summed over the stripes. Stripes are read
// one by one while writers proceed, so a reading is not atomic across
// counters, but a counter that only grows never reads lower than before.
func (c *ShardedCounter) Snapshot() Snapshot {
	s := Snapshot{Names: c.names, Values: make([]int64, len(c.names))}
	for k := 0; k < len(c.cells); k += c.stride {
		for i := range s.Values {
			s.Values[i] += c.cells[k+i].Load()
		}
	}
	return s
}
