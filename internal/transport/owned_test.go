package transport

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// The slab pool's refcount contract (DESIGN.md rule 9) and the owned write
// path's allocation gate. That every reference handed to a peer comes back
// exactly once — flushed, shed, drained, reaped — is checked for both peer
// flavours in lifecycle_test.go.

func TestSlabPoolRefcountLifecycle(t *testing.T) {
	pool := NewSlabPool(1024, 2)
	s := pool.Get(100)
	if got := pool.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d after Get, want 1", got)
	}
	if len(s.Buf) != 0 || cap(s.Buf) != 1024 {
		t.Fatalf("Buf len %d cap %d, want an empty 1024-byte slab", len(s.Buf), cap(s.Buf))
	}
	s.Retain()
	s.Release()
	if got := pool.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d with one ref left, want 1", got)
	}
	s.ReleaseFn()
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after final release, want 0", got)
	}
	// The pooled slab comes back empty.
	s2 := pool.Get(1)
	if s2 != s {
		t.Fatal("pooled slab was not reused")
	}
	if len(s2.Buf) != 0 {
		t.Fatalf("reused slab has %d stale bytes", len(s2.Buf))
	}
	s2.Release()

	// Oversized request: dedicated slab, never pooled.
	big := pool.Get(4096)
	if cap(big.Buf) < 4096 {
		t.Fatalf("oversized cap = %d, want >= 4096", cap(big.Buf))
	}
	big.Release()
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after oversized release, want 0", got)
	}
	again := pool.Get(1)
	if again == big {
		t.Fatal("oversized slab was pooled")
	}
	again.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	again.Release() // refs already 0
}

// frameInSlab appends one payload to the slab and returns its view.
func frameInSlab(s *Slab, payload []byte) []byte {
	off := len(s.Buf)
	s.Buf = append(s.Buf, payload...)
	return s.Buf[off:len(s.Buf):len(s.Buf)]
}

// BenchmarkPeerWriteOwnedSteadyState gates the owned egress path's
// allocation contract: framing into a pooled slab, handing the batch to
// the writer by reference, and writev-ing header‖payload straight out of
// the slab allocates nothing per op once warm (bench_baseline.json pins it
// at 0 allocs/op).
func BenchmarkPeerWriteOwnedSteadyState(b *testing.B) {
	var got atomic.Int64
	acc, err := listen("127.0.0.1:0", 0, func(wire.NodeID, []byte) bool { got.Add(1); return true }, NewCounters())
	if err != nil {
		b.Fatal(err)
	}
	defer acc.Close()
	cfg := Config{QueueDepth: 4096}
	p := NewPeer(fixedResolver(acc.Addr()), cfg, NewCounters())
	defer p.Close()
	payload := bytes.Repeat([]byte{0xA5}, 1500)
	pool := NewSlabPool(0, 32)
	bufs := make([][]byte, 1)

	send := func() {
		slab := pool.Get(len(payload))
		bufs[0] = frameInSlab(slab, payload)
		for !p.EnqueueOwned(1, bufs, slab.ReleaseFn) {
			runtime.Gosched()
		}
	}
	await := func(frames int64) {
		if !simnet.Eventually(30*time.Second, time.Millisecond, func() bool { return got.Load() >= frames }) {
			b.Fatalf("receiver stalled; peer counters %v", p.counters())
		}
	}
	// Warmup: dial, populate the slab pool and batch-envelope freelist.
	warm := int64(256)
	for i := int64(0); i < warm; i++ {
		send()
	}
	await(warm)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stay inside the warmed circulation (see PeerWriteSteadyState).
		for p.QueueLen() > 24 {
			runtime.Gosched()
		}
		send()
	}
	await(warm + int64(b.N))
	b.StopTimer()
	b.SetBytes(int64(len(payload)))
	if st := p.counters(); st.Get("send_failures") > 0 || st.Get("frames_out") != st.Get("enqueued") {
		b.Fatalf("steady state lost accepted frames: %v", st)
	}
	if got := pool.Outstanding(); got > int64(cfg.QueueDepth) {
		b.Fatalf("slab refs leaking: outstanding %d", got)
	}
}
