package transport

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// The writer lifecycle lives once, in the outbox; these tests hold both
// peer flavours to it: drain on Close, reap on CloseNow, resolve retries,
// and — on every exit — each owned batch's release fired exactly once.

type lifecyclePeer interface {
	Link
	QueueLen() int
	counters() metrics.Snapshot
}

var peerFlavours = []struct {
	name    string
	listen  func(t *testing.T, deliver Deliver) string
	newPeer func(resolve func() (string, bool), cfg Config) lifecyclePeer
}{
	{"tcp",
		func(t *testing.T, deliver Deliver) string {
			acc, err := listen("127.0.0.1:0", 0, deliver, NewCounters())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(acc.Close)
			return acc.Addr()
		},
		func(resolve func() (string, bool), cfg Config) lifecyclePeer {
			return NewPeer(resolve, cfg, NewCounters())
		},
	},
	{"udp",
		func(t *testing.T, deliver Deliver) string {
			acc, err := listenUDP("127.0.0.1:0", 0, UDPConfig{}, deliver, NewCounters())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(acc.Close)
			return acc.Addr()
		},
		func(resolve func() (string, bool), cfg Config) lifecyclePeer {
			return NewUDPPeer(resolve, cfg, UDPConfig{}, NewCounters())
		},
	},
}

// ownedBurst is one owned batch with a release that counts its calls.
type ownedBurst struct {
	bufs     [][]byte
	released atomic.Int32
}

func newBurst(payloads ...string) *ownedBurst {
	b := &ownedBurst{}
	for _, p := range payloads {
		b.bufs = append(b.bufs, []byte(p))
	}
	return b
}

func (b *ownedBurst) release() { b.released.Add(1) }

func awaitReleasedOnce(t *testing.T, bursts []*ownedBurst) {
	t.Helper()
	simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
		for _, b := range bursts {
			if b.released.Load() == 0 {
				return false
			}
		}
		return true
	})
	for i, b := range bursts {
		if got := b.released.Load(); got != 1 {
			t.Fatalf("burst %d released %d times, want exactly once", i, got)
		}
	}
}

// Graceful Close flushes what is queued — copied frames and owned batches
// alike, even if the peer never dialed yet (the queue filled before the
// first frame's lazy dial completed) — and every owned batch comes back.
func TestCloseDrainsQueue(t *testing.T) {
	for _, fl := range peerFlavours {
		t.Run(fl.name, func(t *testing.T) {
			s := &sink{}
			addr := fl.listen(t, s.deliver)
			p := fl.newPeer(fixedResolver(addr), testConfig())
			const n = 25
			var bursts []*ownedBurst
			for i := 0; i < n; i++ {
				if !p.Enqueue(3, bytes.Repeat([]byte{byte(i)}, 100)) {
					t.Fatalf("enqueue %d rejected", i)
				}
				b := newBurst("alpha", "beta")
				bursts = append(bursts, b)
				if !p.EnqueueOwned(7, b.bufs, b.release) {
					t.Fatalf("owned enqueue %d rejected", i)
				}
			}
			p.Close() // must drain all of it before hanging up
			s.await(t, 3*n, 5*time.Second)
			if st := p.counters(); st.Get("enqueued") != 3*n || st.Get("frames_out") != 3*n {
				t.Fatalf("counters %v, want all %d frames flushed by Close", st, 3*n)
			}
			awaitReleasedOnce(t, bursts)
			s.mu.Lock()
			defer s.mu.Unlock()
			for i, f := range s.frames {
				switch i % 3 {
				case 0:
					if s.froms[i] != 3 || !bytes.Equal(f, bytes.Repeat([]byte{byte(i / 3)}, 100)) {
						t.Fatalf("frame %d = {from %d, %d bytes}: copied frame corrupted or out of order", i, s.froms[i], len(f))
					}
				case 1, 2:
					if want := []string{"alpha", "beta"}[i%3-1]; s.froms[i] != 7 || string(f) != want {
						t.Fatalf("frame %d = {from %d, %q}, want {from 7, %q}", i, s.froms[i], f, want)
					}
				}
			}
		})
	}
}

// A tiny queue toward an address that never resolves (so nothing flushes):
// the shed path is all-or-nothing, counts drops in frame units and consumes
// the shed batch's release at once; CloseNow then reaps everything still
// queued or in the writer's hand, firing every release.
func TestCloseNowReapsQueue(t *testing.T) {
	for _, fl := range peerFlavours {
		t.Run(fl.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.QueueDepth = 2
			cfg.MaxBatch = 1 // the writer holds at most one batch in hand
			p := fl.newPeer(func() (string, bool) { return "", false }, cfg)

			var bursts []*ownedBurst
			for {
				b := newBurst("a", "b")
				bursts = append(bursts, b)
				if !p.EnqueueOwned(1, b.bufs, b.release) {
					break
				}
				if len(bursts) == 64 {
					t.Fatal("queue depth 2 never filled after 64 batches")
				}
			}
			shed := bursts[len(bursts)-1]
			if shed.released.Load() != 1 {
				t.Fatal("shed batch not released immediately")
			}
			for i, b := range bursts[:len(bursts)-1] {
				if b.released.Load() != 0 {
					t.Fatalf("accepted batch %d released while the address is unresolved", i)
				}
			}
			if got := p.counters().Get("dropped"); got != 2 {
				t.Fatalf("dropped = %d, want 2 (frame units, all-or-nothing)", got)
			}
			p.CloseNow()
			awaitReleasedOnce(t, bursts)
			if st := p.counters(); st.Get("frames_out") != 0 || st.Get("dropped") != st.Get("enqueued")+2 {
				t.Fatalf("after CloseNow: %v, want every accepted frame counted dropped", st)
			}
			if p.Enqueue(1, []byte("late")) {
				t.Fatal("Enqueue accepted a frame after CloseNow")
			}
		})
	}
}

// An unknown address is a failed dial: the writer keeps retrying with
// backoff, and delivers once the resolver learns it.
func TestUnknownAddressKeepsRetrying(t *testing.T) {
	for _, fl := range peerFlavours {
		t.Run(fl.name, func(t *testing.T) {
			s := &sink{}
			addr := fl.listen(t, s.deliver)
			var known atomic.Bool
			p := fl.newPeer(func() (string, bool) { return addr, known.Load() }, testConfig())
			defer p.Close()
			p.Enqueue(1, []byte("early"))
			time.Sleep(20 * time.Millisecond)
			if s.count() != 0 {
				t.Fatal("delivered before the address resolved")
			}
			known.Store(true)
			s.await(t, 1, 5*time.Second)
		})
	}
}

// Frames racing a concurrent Close/CloseNow must either be flushed or
// counted dropped — never stranded in a freed queue (the dead-then-reap
// exit order) — and an owned batch's release fires exactly once whichever
// side consumes it.
func TestCloseEnqueueRace(t *testing.T) {
	for _, fl := range peerFlavours {
		t.Run(fl.name, func(t *testing.T) {
			addr := fl.listen(t, func(wire.NodeID, []byte) bool { return true })
			for i := 0; i < 50; i++ {
				p := fl.newPeer(fixedResolver(addr), testConfig())
				var wg sync.WaitGroup
				wg.Add(2)
				var accepted int64
				var bursts []*ownedBurst
				go func() {
					defer wg.Done()
					for j := 0; j < 20; j++ {
						if p.Enqueue(1, []byte("race")) {
							accepted++
						}
						b := newBurst("owned")
						bursts = append(bursts, b)
						if p.EnqueueOwned(1, b.bufs, b.release) {
							accepted++
						}
					}
				}()
				go func() {
					defer wg.Done()
					if i%2 == 0 {
						p.CloseNow()
					} else {
						p.Close()
					}
				}()
				wg.Wait()
				p.Close() // idempotent after either
				awaitReleasedOnce(t, bursts)
				st := p.counters()
				enq, out, dropped := st.Get("enqueued"), st.Get("frames_out"), st.Get("dropped")
				// enqueued counts every frame that entered the queue — at
				// least the ones the caller saw accepted (the dead-race
				// branch counts a frame enqueued AND dropped while reporting
				// false to the caller).
				if enq < accepted {
					t.Fatalf("iter %d: enqueued count skew: peer %d < caller %d", i, enq, accepted)
				}
				if out > enq {
					t.Fatalf("iter %d: flushed more than enqueued: %d > %d", i, out, enq)
				}
				// Conservation: every enqueued frame was either flushed or
				// dropped (dropped also counts rejected enqueues, hence ≥).
				if out+dropped < enq {
					t.Fatalf("iter %d: stranded frames: out %d + dropped %d < enqueued %d", i, out, dropped, enq)
				}
			}
		})
	}
}

// QueueLen counts frames, not queue entries: an owned batch of 8 is one
// entry carrying 8 frames, and SendDelay reads the queue in frames. No
// writer runs, so nothing leaves the queue until it is discarded.
func TestQueueLenCountsFrames(t *testing.T) {
	cfg := testConfig()
	cfg.fillDefaults()
	o := newOutbox(cfg, func() (string, bool) { return "", false }, NewCounters())
	b := newBurst("1", "2", "3", "4", "5", "6", "7", "8")
	if !o.EnqueueOwned(1, b.bufs, b.release) {
		t.Fatal("owned batch rejected")
	}
	if got := o.QueueLen(); got != 8 {
		t.Fatalf("QueueLen = %d after one owned batch of 8 frames, want 8", got)
	}
	if !o.Enqueue(1, []byte("copied")) {
		t.Fatal("copied frame rejected")
	}
	if got := o.QueueLen(); got != 9 {
		t.Fatalf("QueueLen = %d after one more copied frame, want 9", got)
	}
	o.discardQueue()
	if got, dropped := o.QueueLen(), o.counters().Get("dropped"); got != 0 || dropped != 9 {
		t.Fatalf("after discard: QueueLen = %d, dropped = %d; want 0 and 9", got, dropped)
	}
	if got := b.released.Load(); got != 1 {
		t.Fatalf("owned batch released %d times, want once", got)
	}
}

// The writer hands envelopes back to the freelist as they are; reserve
// resets what it reuses. An envelope that carried an owned burst of 8 and
// is reused for one copied frame must keep none of the burst's views, and
// its release must be the copied frame's: the burst is released once,
// when the writer recycled it, and never again.
func TestRecycledEnvelopeKeepsNoStaleViews(t *testing.T) {
	cfg := testConfig()
	cfg.fillDefaults()
	o := newOutbox(cfg, func() (string, bool) { return "", false }, NewCounters())
	b := newBurst("1", "2", "3", "4", "5", "6", "7", "8")
	if !o.EnqueueOwned(1, b.bufs, b.release) {
		t.Fatal("owned batch rejected")
	}
	burst := o.ring[o.head]
	o.discardQueue()
	if !o.Enqueue(1, []byte("copied")) {
		t.Fatal("copied frame rejected")
	}
	e := o.ring[o.head]
	if e != burst {
		t.Fatal("the copied frame did not reuse the recycled envelope")
	}
	if len(e.bufs) != 1 || string(e.bufs[0]) != "copied" {
		t.Fatalf("reused envelope carries %d frames, want the one copied frame", len(e.bufs))
	}
	for i, v := range e.bufs[1:cap(e.bufs)] {
		if v != nil {
			t.Fatalf("reused envelope still holds the burst's view %d (%q)", i+1, v)
		}
	}
	o.discardQueue()
	if got := b.released.Load(); got != 1 {
		t.Fatalf("owned batch released %d times, want once", got)
	}
}

// Every queue entry is one envelope, whether Enqueue copied its frame or
// EnqueueOwned holds a burst by reference. Two senders interleave both on
// one peer, overwriting each copied frame's buffer as soon as Enqueue
// returns; the writer is parked in resolve meanwhile, holding only a primer
// frame, so QueueLen must read every queued frame. Then the acceptor gets
// each sender's frames byte-exact and in its queue order, each release
// fires once, and no slab stays out after Close.
func TestPeerMixedEntries(t *testing.T) {
	const rounds, burst = 20, 3
	for _, fl := range peerFlavours {
		t.Run(fl.name, func(t *testing.T) {
			s := &sink{}
			addr := fl.listen(t, s.deliver)
			parked, gate := make(chan struct{}), make(chan struct{})
			var once sync.Once
			cfg := testConfig()
			cfg.QueueDepth = 2 * rounds * 2
			p := fl.newPeer(func() (string, bool) {
				once.Do(func() { close(parked) })
				<-gate
				return addr, true
			}, cfg)
			if !p.Enqueue(9, []byte("primer")) {
				t.Fatal("primer rejected")
			}
			<-parked

			pool := NewSlabPool(0, 0)
			want := map[wire.NodeID][]string{}
			releases := make([][]atomic.Int32, 2)
			var wg sync.WaitGroup
			for k := range releases {
				from := wire.NodeID(k + 1)
				releases[k] = make([]atomic.Int32, rounds)
				for r := 0; r < rounds; r++ {
					want[from] = append(want[from], fmt.Sprintf("copied %d/%d", from, r))
					for i := 0; i < burst; i++ {
						want[from] = append(want[from], fmt.Sprintf("owned %d/%d/%d", from, r, i))
					}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, 0, 32)
					for r := 0; r < rounds; r++ {
						buf = fmt.Appendf(buf[:0], "copied %d/%d", from, r)
						if !p.Enqueue(from, buf) {
							t.Errorf("sender %d: copied frame %d rejected", from, r)
						}
						for i := range buf {
							buf[i] = 'X' // the queue holds its own copy
						}
						slab := pool.Get(0)
						bufs := make([][]byte, burst)
						for i := range bufs {
							bufs[i] = frameInSlab(slab, fmt.Appendf(nil, "owned %d/%d/%d", from, r, i))
						}
						rel := &releases[k][r]
						if !p.EnqueueOwned(from, bufs, func() { rel.Add(1); slab.Release() }) {
							t.Errorf("sender %d: burst %d rejected", from, r)
						}
					}
				}()
			}
			wg.Wait()
			if got, frames := p.QueueLen(), 2*rounds*(1+burst); got != frames {
				t.Fatalf("QueueLen = %d with the writer parked, want %d frames", got, frames)
			}
			close(gate)
			p.Close()
			s.await(t, 1+2*rounds*(1+burst), 5*time.Second)
			if st := p.counters(); st.Get("dropped") != 0 || st.Get("frames_out") != st.Get("enqueued") {
				t.Fatalf("counters %v, want every frame flushed", st)
			}
			got := map[wire.NodeID][]string{}
			s.mu.Lock()
			for i, f := range s.frames {
				got[s.froms[i]] = append(got[s.froms[i]], string(f))
			}
			s.mu.Unlock()
			for from, w := range want {
				if !slices.Equal(got[from], w) {
					t.Fatalf("sender %d received %q, want %q", from, got[from], w)
				}
			}
			for k := range releases {
				for r := range releases[k] {
					if n := releases[k][r].Load(); n != 1 {
						t.Fatalf("sender %d burst %d released %d times, want once", k+1, r, n)
					}
				}
			}
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("%d slabs outstanding after Close", n)
			}
		})
	}
}
