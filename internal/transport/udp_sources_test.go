package transport

import (
	"net"
	"testing"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// rawDatagram builds one data datagram by hand: magic + kind + seq, then a
// single frame from the given sender. Raw sockets (not UDPPeer) keep the
// test in control of exactly which source socket each datagram leaves from.
func rawDatagram(seq uint32, sender wire.NodeID, payload []byte) []byte {
	return datagramOf(seq, frame(sender, payload))
}

// TestUDPSourceEvictionVirtualTime pins the clock-injection fix: the idle-
// source sweep ages sources on the acceptor's injected simnet.Clock, not the
// wall clock, so two virtual minutes of silence evict a source in a test
// that runs in milliseconds. A source kept warm by traffic survives the same
// sweep.
func TestUDPSourceEvictionVirtualTime(t *testing.T) {
	vc := simnet.NewVirtualClock()
	acc, err := listenUDP("127.0.0.1:0", 0, UDPConfig{Clock: vc},
		func(wire.NodeID, []byte) bool { return true }, NewCounters())
	if err != nil {
		t.Fatal(err)
	}
	defer acc.Close()
	dst, err := net.ResolveUDPAddr("udp", acc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sources := func() int64 {
		c := acc.ctr.Snapshot()
		return c.Get("sources_added") - c.Get("sources_evicted")
	}

	dial := func() *net.UDPConn {
		c, err := net.DialUDP("udp", nil, dst)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	warm, idle := dial(), dial()

	warm.Write(rawDatagram(1, 10, []byte("warm")))
	idle.Write(rawDatagram(1, 11, []byte("idle")))
	if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
		return sources() == 2
	}) {
		t.Fatalf("sources = %d, want 2 source sockets tracked", sources())
	}

	// Both sources now fall silent for srcIdleTimeout of VIRTUAL time. The
	// clock advance is instant; no real minutes pass.
	vc.RunFor(srcIdleTimeout + srcSweepEvery + time.Second)

	// The warm source speaks again. Processing that datagram refreshes its
	// lastSeen at the new virtual now BEFORE the piggybacked sweep runs, so
	// the sweep evicts exactly the idle source.
	warm.Write(rawDatagram(2, 10, []byte("still here")))
	if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
		return sources() == 1
	}) {
		t.Fatalf("sources = %d after virtual idle timeout, want 1", sources())
	}

	// An evicted source that returns restarts cleanly as a fresh rxSource.
	idle.Write(rawDatagram(7, 11, []byte("back")))
	if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
		return sources() == 2
	}) {
		t.Fatalf("sources = %d after evicted source returned, want 2", sources())
	}
	if frames := acc.ctr.Snapshot().Get("frames_in"); frames != 4 {
		t.Fatalf("frames_in = %d, want 4", frames)
	}
}
