package relay

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// The filter's load-bearing guarantee is NO FALSE NEGATIVES: a key whose
// insert returned true must read as mayContain until removed — the relay
// drops miss-path packets on the transport goroutine on the filter's word
// alone, so a false negative silently black-holes a live flow.
func TestCuckooNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const capacity = 4096
	cf := newCuckooFilter(capacity)
	inserted := make([]uint64, 0, capacity)
	for i := 0; i < capacity; i++ {
		key := rng.Uint64()
		if !cf.insert(key, rng) {
			t.Fatalf("insert %d of %d failed at the advertised capacity (2x headroom)", i, capacity)
		}
		inserted = append(inserted, key)
	}
	for _, key := range inserted {
		if !cf.mayContain(key) {
			t.Fatalf("false negative for inserted key %#x", key)
		}
	}
	// Remove half; the survivors must still all read present.
	for _, key := range inserted[:capacity/2] {
		if !cf.remove(key) {
			t.Fatalf("remove lost track of inserted key %#x", key)
		}
	}
	for _, key := range inserted[capacity/2:] {
		if !cf.mayContain(key) {
			t.Fatalf("false negative for surviving key %#x after removals", key)
		}
	}
}

// At the sized load the false-positive rate for absent keys must stay in
// cuckoo-filter territory (8-bit fingerprints, 4-way buckets: ~3% worst
// case); a broken hash split or fingerprint collapse shows up here as a
// rate far above the bound.
func TestCuckooFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const capacity = 4096
	cf := newCuckooFilter(capacity)
	for i := 0; i < capacity; i++ {
		if !cf.insert(rng.Uint64(), rng) {
			t.Fatal("insert failed below capacity")
		}
	}
	const probes = 100_000
	fp := 0
	for i := 0; i < probes; i++ {
		if cf.mayContain(rng.Uint64()) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false-positive rate %.3f, want <= 0.05", rate)
	}
}

// Past saturation the filter must degrade to pass-through, never to lying:
// a failed insert flips overflow mode (everything reads present), and the
// matching overflow-aware removal restores exact filtering once the
// pressure is gone.
func TestCuckooOverflowPassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cf := newCuckooFilter(1) // minimum table: 256 slots
	var placed, failed []uint64
	// 256 slots fill somewhere past 95% occupancy; keep inserting until
	// the kick budget gives out.
	for len(failed) == 0 {
		key := rng.Uint64()
		if cf.insert(key, rng) {
			placed = append(placed, key)
		} else {
			failed = append(failed, key)
		}
		if len(placed) > 10_000 {
			t.Fatal("tiny filter never saturated")
		}
	}
	if cf.overflow.Load() != 1 {
		t.Fatalf("overflow = %d after one failed insert, want 1", cf.overflow.Load())
	}
	// Pass-through mode: even a key that was never inserted reads present.
	if !cf.mayContain(0xdead_beef_dead_beef) {
		t.Fatal("overflow mode must answer true for everything")
	}
	// The overflowed flow's removal rebalances the count (the caller knows
	// via its inFilter flag that nothing was placed for it).
	cf.overflow.Add(-1)
	if cf.overflow.Load() != 0 {
		t.Fatal("overflow count did not rebalance")
	}
	// Exact filtering is back: placed keys present, and absent keys can
	// miss again (scan a few candidates for a definite miss).
	for _, key := range placed {
		if !cf.mayContain(key) {
			t.Fatalf("false negative for %#x after overflow rebalance", key)
		}
	}
	miss := false
	for i := uint64(0); i < 64; i++ {
		if !cf.mayContain(0xf00d_0000 + i) {
			miss = true
			break
		}
	}
	if !miss {
		t.Fatal("no definite miss after leaving overflow mode; filter stuck in pass-through")
	}
}

// Kicked-out fingerprints must survive relocation: fill both candidate
// buckets of a victim key, force displacement chains through it, and check
// the victim never vanishes.
func TestCuckooKickPreservesResidents(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const capacity = 512
	cf := newCuckooFilter(capacity)
	keys := make([]uint64, 0, capacity)
	for i := 0; i < capacity; i++ {
		key := rng.Uint64()
		if cf.insert(key, rng) {
			keys = append(keys, key)
		}
		// Every key inserted so far must still read present mid-churn —
		// kicks relocate fingerprints but never drop them.
		if i%64 == 0 {
			for _, k := range keys {
				if !cf.mayContain(k) {
					t.Fatalf("key %#x lost during displacement churn", k)
				}
			}
		}
	}
}

// runCuckooScript drives a small filter with a byte script and checks it
// against a map of resident keys. A byte below 0xc0 inserts 1+b%8 fresh
// keys; any other byte removes resident number b%len, the way removeFlow
// does: a key whose insert placed it is removed from the table, one whose
// insert overflowed hands its overflow count back. After every byte each
// resident reads present, each placed resident's fingerprint sits in one of
// its two buckets, the table holds exactly one fingerprint per placed
// resident, and overflow counts the residents whose insert returned false.
func runCuckooScript(t *testing.T, seed int64, script []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nb := 4 << (uint64(seed) % 4) // 16..128 slots: long kick chains and saturation are common
	cf := &cuckooFilter{buckets: make([]atomic.Uint32, nb), mask: uint64(nb - 1)}
	placed := map[uint64]bool{} // resident key → its insert returned true
	var residents []uint64
	next := uint64(seed) << 20
	for step, b := range script {
		if b < 0xc0 {
			for k := 0; k <= int(b%8); k++ {
				next++
				placed[next] = cf.insert(next, rng)
				residents = append(residents, next)
			}
		} else if len(residents) > 0 {
			j := int(b) % len(residents)
			key := residents[j]
			residents = append(residents[:j], residents[j+1:]...)
			if placed[key] {
				if !cf.remove(key) {
					t.Fatalf("step %d: remove found no fingerprint for placed key %#x", step, key)
				}
			} else {
				cf.overflow.Add(-1)
			}
			delete(placed, key)
		}
		var overflowed int64
		for _, key := range residents {
			if !cf.mayContain(key) {
				t.Fatalf("step %d: resident key %#x reads absent", step, key)
			}
			if !placed[key] {
				overflowed++
				continue
			}
			i1, i2, fp := cf.indexes(key)
			if !hasFP(cf.buckets[i1].Load(), fp) && !hasFP(cf.buckets[i2].Load(), fp) {
				t.Fatalf("step %d: placed key %#x lost its fingerprint", step, key)
			}
		}
		if got := cf.overflow.Load(); got != overflowed {
			t.Fatalf("step %d: overflow = %d, want %d residents that did not place", step, got, overflowed)
		}
		stored := 0
		for i := range cf.buckets {
			for w := cf.buckets[i].Load(); w != 0; w >>= 8 {
				if byte(w) != 0 {
					stored++
				}
			}
		}
		if want := len(residents) - int(overflowed); stored != want {
			t.Fatalf("step %d: table holds %d fingerprints, want %d", step, stored, want)
		}
	}
}

func TestCuckooAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 50+rng.Intn(200))
		rng.Read(script)
		runCuckooScript(t, seed, script)
	}
}

func FuzzCuckooFilter(f *testing.F) {
	f.Add(int64(0), []byte{7, 7, 0xc0, 7, 0xc1, 7, 7})
	f.Add(int64(1), []byte{7, 7, 7, 7, 0xff, 0xfe, 7, 0xc3, 7, 7, 7, 0xd0})
	f.Add(int64(2), []byte{3, 0xc5, 4, 0xc0, 5, 0xc7, 6, 0xc9, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		runCuckooScript(t, seed, script)
	})
}
