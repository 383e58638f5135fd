package overlay

import (
	"testing"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

func TestRegistryObserveAndResolve(t *testing.T) {
	reg := newEndpointRegistry(nil)
	if _, ok := reg.learned(7); ok {
		t.Fatal("empty registry resolved an id")
	}
	if changed := reg.observe(7, "10.0.0.1:4000"); changed {
		t.Fatal("first observation reported a change")
	}
	if addr, ok := reg.learned(7); !ok || addr != "10.0.0.1:4000" {
		t.Fatalf("learned(7) = %q, %v", addr, ok)
	}
	// Same address again: refresh, not a change.
	if changed := reg.observe(7, "10.0.0.1:4000"); changed {
		t.Fatal("re-observation of the same address reported a change")
	}
	// A moved endpoint IS a change — the caller must drop the cached peer.
	if changed := reg.observe(7, "10.0.0.2:4000"); !changed {
		t.Fatal("moved endpoint not reported as a change")
	}
	if addr, _ := reg.learned(7); addr != "10.0.0.2:4000" {
		t.Fatalf("learned(7) = %q after move", addr)
	}
	if reg.size() != 1 {
		t.Fatalf("size = %d, want 1", reg.size())
	}
}

// TTL runs on the injected clock, so expiry is tested in virtual time: an
// entry silent past registryTTL resolves to nothing, while one refreshed by
// traffic survives.
func TestRegistryTTLVirtualTime(t *testing.T) {
	vc := simnet.NewVirtualClock()
	reg := newEndpointRegistry(vc)
	reg.observe(1, "10.0.0.1:1")
	reg.observe(2, "10.0.0.2:2")

	vc.RunFor(registryTTL / 2)
	reg.observe(2, "10.0.0.2:2") // id 2 keeps talking
	vc.RunFor(registryTTL/2 + time.Second)

	if _, ok := reg.learned(1); ok {
		t.Fatal("entry silent past the TTL still resolved")
	}
	if _, ok := reg.learned(2); !ok {
		t.Fatal("refreshed entry expired")
	}
	// The expired entry was reaped on lookup, not just hidden.
	if reg.size() != 1 {
		t.Fatalf("size = %d after expiry sweep, want 1", reg.size())
	}
}

// At the cap an insert evicts the stalest of a sample instead of growing:
// claimed sender ids are attacker-mintable, so the registry must be bounded.
func TestRegistryCapEviction(t *testing.T) {
	vc := simnet.NewVirtualClock()
	reg := newEndpointRegistry(vc)
	for i := 0; i < registryCap; i++ {
		reg.observe(wire.NodeID(i+1), "10.0.0.1:1")
		if i%4096 == 0 {
			vc.RunFor(time.Second) // spread observation ages for the sampler
		}
	}
	if reg.size() != registryCap {
		t.Fatalf("size = %d, want cap %d", reg.size(), registryCap)
	}
	for i := 0; i < 100; i++ {
		reg.observe(wire.NodeID(registryCap+10+i), "10.0.0.9:9")
	}
	if reg.size() != registryCap {
		t.Fatalf("size = %d after inserts at cap, want %d", reg.size(), registryCap)
	}
	// The newly minted ids displaced old ones, not each other.
	for i := 0; i < 100; i++ {
		if _, ok := reg.learned(wire.NodeID(registryCap + 10 + i)); !ok {
			t.Fatalf("fresh entry %d evicted while stale entries remain", i)
		}
	}
}

// TestStaticLearnsSender is the NAT/restart scenario end to end at the
// transport layer: node B is absent from A's book, so A can only reach B's
// observed endpoint after B's traffic teaches the registry. The test
// asserts the learning path — observation, registry resolution, peer
// creation, frames emitted where the flavour can emit them — not round-trip
// delivery: the observed address is B's *sending* socket, and whether a
// daemon answers where it speaks is a deployment property (see the registry
// doc comment).
func TestStaticLearnsSender(t *testing.T) {
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			const a, b = wire.NodeID(1), wire.NodeID(2)
			sA := fl.static(nil)
			defer sA.Close()
			var sink tcpSink
			if err := sA.AttachDynamic(a, sink.handler); err != nil {
				t.Fatal(err)
			}
			addrA, _ := sA.Addr(a)

			// B's process knows A; A's process does not know B.
			sB := fl.static(map[wire.NodeID]string{a: addrA})
			defer sB.Close()
			if err := sB.AttachDynamic(b, func(wire.NodeID, []byte) {}); err != nil {
				t.Fatal(err)
			}

			// Before any traffic, A cannot resolve B at all: Send is a
			// silent no-op (no book entry, no learned endpoint, no peer
			// minted).
			if err := sA.Send(a, b, []byte("early")); err != nil {
				t.Fatal(err)
			}
			if got := sA.Counters().Get("enqueued"); got != 0 {
				t.Fatalf("%d frames queued before B was resolvable", got)
			}

			// B talks to A; A's acceptor observes the claimed sender id and
			// feeds the registry.
			if !simnet.Eventually(5*time.Second, 5*time.Millisecond, func() bool {
				sB.Send(b, a, []byte("hello from B"))
				return sA.LearnedEndpoints() == 1
			}) {
				t.Fatalf("registry never learned B's endpoint (learned=%d)", sA.LearnedEndpoints())
			}
			sink.wait(t, 1, 5*time.Second)

			// Now A resolves B through the registry: Send mints a peer for
			// the learned address and queues the frame. On a stream the
			// learned address is B's outbound socket, so the dial itself
			// may not complete; a datagram socket needs no listener, so
			// there the frames must leave the building.
			if err := sA.Send(a, b, []byte("reply to learned endpoint")); err != nil {
				t.Fatal(err)
			}
			if got := sA.Counters().Get("enqueued"); got != 1 {
				t.Fatalf("%d frames queued toward the learned endpoint, want 1", got)
			}
			if fl.name == "udp" && !simnet.Eventually(5*time.Second, 5*time.Millisecond, func() bool {
				sA.Send(a, b, []byte("again")) //nolint:errcheck
				return sA.Stats().Packets > 0
			}) {
				t.Fatalf("no frames toward learned endpoint: %+v", sA.Stats())
			}
		})
	}
}

// The book always wins: an id the operator configured never enters the
// registry, so a spoofer claiming a configured id cannot redirect its
// traffic.
func TestRegistryBookWins(t *testing.T) {
	const a, b = wire.NodeID(1), wire.NodeID(2)
	book := freeUDPBook(t, a, b)
	s := NewStaticUDP(book, UDPOptions{})
	defer s.Close()
	var sink tcpSink
	if err := s.Attach(a, sink.handler); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(b, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	// b is in the book, so traffic from b teaches the registry nothing.
	if err := s.Send(b, a, []byte("in-book sender")); err != nil {
		t.Fatal(err)
	}
	sink.wait(t, 1, 5*time.Second)
	if got := s.LearnedEndpoints(); got != 0 {
		t.Fatalf("registry holds %d entries for in-book senders, want 0", got)
	}
}
