package relay

import (
	"math/rand"
	"sync/atomic"

	"infoslicing/internal/metrics"
)

// cuckooFilter fronts one shard's flow map so traffic for flows the shard
// does not hold — unknown flow-ids, garbage, post-eviction stragglers —
// can be rejected by transport goroutines without ever reaching the shard's
// worker (the DiCuPIT move: a small front filter keeps table lookups flat no
// matter how much non-table traffic arrives).
//
// Layout: a power-of-two array of buckets, each bucket one uint32 holding
// four 8-bit fingerprint slots (fingerprints are never zero; zero means
// empty). A flow hashes to two candidate buckets in the standard
// partial-key cuckoo scheme — i2 = i1 XOR mix(fp) — so either bucket can
// be derived from the other given only the fingerprint, which is what
// makes eviction chains (kicks) possible without storing keys.
//
// Concurrency contract: reads (mayContain) are lock-free atomic loads and
// may run from any goroutine; ALL mutations happen on the owning shard's
// worker, so the writer is single-threaded and plain
// load-modify-store on the atomic words is race-free. The kick path
// applies its displacement chain destination-first — every relocated
// fingerprint is written into its new bucket before its old slot is
// overwritten — so a concurrent reader can observe a transient duplicate
// (a harmless false positive) but never a transient absence: a present
// flow NEVER reads as missing.
type cuckooFilter struct {
	buckets []atomic.Uint32
	mask    uint64
	// overflow counts live flows whose fingerprint could not be placed
	// (table saturated past the kick budget). While it is non-zero,
	// mayContain answers true for everything — the filter degrades to a
	// pass-through instead of ever lying about a resident flow.
	overflow atomic.Int64
}

const (
	cuckooSlots = 4
	// cuckooKicks bounds the displacement walk; at the ~2x headroom the
	// shards size their filters with, a chain this long means the table
	// is effectively full and overflow mode is the honest answer.
	cuckooKicks = 64
)

// newCuckooFilter sizes a filter for about `capacity` resident flows with
// 2x slot headroom (cuckoo filters run reliably to ~95% occupancy; the
// headroom keeps kick chains short at the advertised capacity).
func newCuckooFilter(capacity int) *cuckooFilter {
	slots := 2 * capacity
	if slots < 256 {
		slots = 256
	}
	n := metrics.CeilPow2((slots + cuckooSlots - 1) / cuckooSlots)
	return &cuckooFilter{
		buckets: make([]atomic.Uint32, n),
		mask:    uint64(n - 1),
	}
}

func (cf *cuckooFilter) indexes(key uint64) (i1, i2 uint64, fp byte) {
	h := metrics.Mix64(key)
	fp = byte(h >> 56)
	if fp == 0 {
		fp = 1
	}
	i1 = h & cf.mask
	i2 = cf.altIndex(i1, fp)
	return
}

func (cf *cuckooFilter) altIndex(i uint64, fp byte) uint64 {
	return (i ^ metrics.Mix64(uint64(fp))) & cf.mask
}

// hasFP reports whether any of the four slots in w holds fp (SWAR zero-byte
// trick on w XOR broadcast(fp); fp is never zero, so empty slots never
// match).
func hasFP(w uint32, fp byte) bool {
	x := w ^ (uint32(fp) * 0x01010101)
	return (x-0x01010101)&^x&0x80808080 != 0
}

// mayContain is the lock-free read: false means the flow is definitely not
// resident on this shard (modulo overflow mode); true means "queue it for
// the worker, which checks the map".
func (cf *cuckooFilter) mayContain(key uint64) bool {
	i1, i2, fp := cf.indexes(key)
	if hasFP(cf.buckets[i1].Load(), fp) || hasFP(cf.buckets[i2].Load(), fp) {
		return true
	}
	return cf.overflow.Load() > 0
}

// place writes fp into an empty slot of bucket b, if one exists. Writer
// only (the shard's worker).
func (cf *cuckooFilter) place(b uint64, fp byte) bool {
	w := cf.buckets[b].Load()
	for s := uint(0); s < cuckooSlots; s++ {
		if byte(w>>(8*s)) == 0 {
			cf.buckets[b].Store(w | uint32(fp)<<(8*s))
			return true
		}
	}
	return false
}

func (cf *cuckooFilter) setSlot(b uint64, s uint, fp byte) {
	w := cf.buckets[b].Load()
	cf.buckets[b].Store(w&^(0xff<<(8*s)) | uint32(fp)<<(8*s))
}

// insert adds the flow's fingerprint, kicking resident fingerprints along
// a displacement chain if both candidate buckets are full. Returns false —
// after switching the filter to overflow (pass-through) mode — when no
// chain within the kick budget frees a slot; the caller records that so
// the matching remove can rebalance the overflow count instead of deleting
// a fingerprint that was never placed. Writer only (the shard's worker).
func (cf *cuckooFilter) insert(key uint64, rng *rand.Rand) bool {
	i1, i2, fp := cf.indexes(key)
	if cf.place(i1, fp) || cf.place(i2, fp) {
		return true
	}
	// Random-walk the displacement chain first, recording it, then apply
	// it BACKWARD: the terminal victim lands in its free slot before its
	// old slot is overwritten by its predecessor, and so on up the chain,
	// preserving no-false-negatives for concurrent readers.
	type step struct {
		b  uint64
		s  uint
		fp byte
	}
	var path [cuckooKicks]step
	b := i1
	if rng.Intn(2) == 1 {
		b = i2
	}
	for d := 0; d < cuckooKicks; d++ {
		// Never revisit a slot an earlier step already claimed: two steps
		// planning different final contents for one physical slot would lose
		// a fingerprint on the backward apply (a false negative). If every
		// slot of b is mid-relocation the walk is cycling through a full
		// neighborhood — saturation is the honest answer.
		var used uint
		for k := 0; k < d; k++ {
			if path[k].b == b {
				used |= 1 << path[k].s
			}
		}
		if used == 1<<cuckooSlots-1 {
			break
		}
		s := uint(rng.Intn(cuckooSlots))
		for used&(1<<s) != 0 {
			s = (s + 1) % cuckooSlots
		}
		victim := byte(cf.buckets[b].Load() >> (8 * s))
		path[d] = step{b: b, s: s, fp: victim}
		nb := cf.altIndex(b, victim)
		if cf.place(nb, victim) {
			for k := d; k >= 1; k-- {
				cf.setSlot(path[k].b, path[k].s, path[k-1].fp)
			}
			cf.setSlot(path[0].b, path[0].s, fp)
			return true
		}
		b = nb
	}
	cf.overflow.Add(1)
	return false
}

// remove deletes one instance of the flow's fingerprint. Writer only
// (the shard's worker). Returns false if no instance was present — callers
// pair removes with successful inserts, so false indicates accounting
// drift and is worth asserting on in tests.
func (cf *cuckooFilter) remove(key uint64) bool {
	i1, i2, fp := cf.indexes(key)
	return cf.unplace(i1, fp) || cf.unplace(i2, fp)
}

func (cf *cuckooFilter) unplace(b uint64, fp byte) bool {
	w := cf.buckets[b].Load()
	for s := uint(0); s < cuckooSlots; s++ {
		if byte(w>>(8*s)) == fp {
			cf.buckets[b].Store(w &^ (0xff << (8 * s)))
			return true
		}
	}
	return false
}
