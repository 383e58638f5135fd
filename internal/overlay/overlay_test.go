package overlay

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/wire"
)

type sink struct {
	mu   sync.Mutex
	msgs []struct {
		from wire.NodeID
		data []byte
	}
	notify chan struct{}
}

func newSink() *sink { return &sink{notify: make(chan struct{}, 1024)} }

func (s *sink) handler(from wire.NodeID, data []byte) {
	s.mu.Lock()
	s.msgs = append(s.msgs, struct {
		from wire.NodeID
		data []byte
	}{from, data})
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) waitFor(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for s.count() < n {
		select {
		case <-s.notify:
		case <-deadline:
			t.Fatalf("timeout: have %d of %d messages", s.count(), n)
		}
	}
}

func TestChanNetworkBasicDelivery(t *testing.T) {
	n := NewChanNetwork(Unshaped(), rand.New(rand.NewSource(1)))
	defer n.Close()
	s := newSink()
	if err := n.Attach(1, s.handler); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(2, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(2, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	s.waitFor(t, 1, time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.msgs[0].from != 2 || !bytes.Equal(s.msgs[0].data, []byte("hello")) {
		t.Fatalf("wrong message: %+v", s.msgs[0])
	}
}

func TestChanNetworkDuplicateAttach(t *testing.T) {
	n := NewChanNetwork(Unshaped(), rand.New(rand.NewSource(1)))
	defer n.Close()
	if err := n.Attach(1, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(1, func(wire.NodeID, []byte) {}); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestChanNetworkUnknownSender(t *testing.T) {
	n := NewChanNetwork(Unshaped(), rand.New(rand.NewSource(1)))
	defer n.Close()
	if err := n.Send(5, 6, []byte("x")); err == nil {
		t.Fatal("unknown sender accepted")
	}
}

func TestChanNetworkFailedNodesDropTraffic(t *testing.T) {
	n := NewChanNetwork(Unshaped(), rand.New(rand.NewSource(1)))
	defer n.Close()
	s := newSink()
	n.Attach(1, s.handler)
	n.Attach(2, func(wire.NodeID, []byte) {})
	n.Fail(1)
	if !n.Down(1) {
		t.Fatal("Down(1) should be true")
	}
	if err := n.Send(2, 1, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	// Failed sender errors.
	n.Fail(2)
	if err := n.Send(2, 1, []byte("x")); err == nil {
		t.Fatal("failed sender should error")
	}
	n.Revive(1)
	n.Revive(2)
	if n.Down(1) {
		t.Fatal("revive failed")
	}
	n.Send(2, 1, []byte("back"))
	s.waitFor(t, 1, time.Second)
	if s.count() != 1 {
		t.Fatalf("expected only post-revive message, got %d", s.count())
	}
}

// TestChanNetworkFailDropsInFlightPackets pins the fail-while-in-flight
// semantics: packets sent before a crash but still inside their emulated
// link delay are lost with the crash — even if the node revives before
// their scheduled arrival. Only packets sent after the revive land.
func TestChanNetworkFailDropsInFlightPackets(t *testing.T) {
	p := Profile{Name: "slow", LatencyMin: 60 * time.Millisecond, LatencyMax: 60 * time.Millisecond}
	n := NewChanNetwork(p, rand.New(rand.NewSource(1)))
	defer n.Close()
	s := newSink()
	n.Attach(1, s.handler)
	n.Attach(2, func(wire.NodeID, []byte) {})

	// Queue packets toward node 1, then crash and immediately revive it
	// while they are still in flight.
	for i := 0; i < 5; i++ {
		if err := n.Send(2, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Fail(1)
	n.Revive(1)
	if n.Down(1) {
		t.Fatal("revive failed")
	}
	// The in-flight packets' arrival time passes; none may be delivered.
	time.Sleep(200 * time.Millisecond)
	if got := s.count(); got != 0 {
		t.Fatalf("%d pre-crash packet(s) delivered after Fail", got)
	}
	// Post-revive traffic flows normally.
	if err := n.Send(2, 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	s.waitFor(t, 1, 2*time.Second)
	if got := s.count(); got != 1 {
		t.Fatalf("got %d message(s), want exactly the post-revive one", got)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !bytes.Equal(s.msgs[0].data, []byte("after")) {
		t.Fatal("wrong message survived the crash")
	}
}

func TestChanNetworkLatencyShaping(t *testing.T) {
	p := Unshaped()
	p.LatencyMin, p.LatencyMax = 30*time.Millisecond, 31*time.Millisecond
	n := NewChanNetwork(p, rand.New(rand.NewSource(2)))
	defer n.Close()
	s := newSink()
	n.Attach(1, s.handler)
	n.Attach(2, func(wire.NodeID, []byte) {})
	start := time.Now()
	n.Send(2, 1, []byte("timed"))
	s.waitFor(t, 1, time.Second)
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("latency not applied: %v", el)
	}
}

func TestChanNetworkBandwidthSerializes(t *testing.T) {
	p := Unshaped()
	p.BandwidthBps = 800_000 // 100 KB/s: 10 KB takes 100 ms
	n := NewChanNetwork(p, rand.New(rand.NewSource(3)))
	defer n.Close()
	s := newSink()
	n.Attach(1, s.handler)
	n.Attach(2, func(wire.NodeID, []byte) {})
	start := time.Now()
	payload := make([]byte, 10_000)
	for i := 0; i < 3; i++ {
		n.Send(2, 1, payload)
	}
	s.waitFor(t, 3, 5*time.Second)
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Fatalf("bandwidth cap not enforced: %v", el)
	}
}

func TestChanNetworkLoss(t *testing.T) {
	p := Unshaped()
	p.Loss = 1.0
	n := NewChanNetwork(p, rand.New(rand.NewSource(4)))
	defer n.Close()
	s := newSink()
	n.Attach(1, s.handler)
	n.Attach(2, func(wire.NodeID, []byte) {})
	for i := 0; i < 50; i++ {
		n.Send(2, 1, []byte("x"))
	}
	time.Sleep(50 * time.Millisecond)
	if s.count() != 0 {
		t.Fatalf("loss=1.0 delivered %d packets", s.count())
	}
	if lost := n.Stats().Lost; lost != 50 {
		t.Fatalf("lost counter %d", lost)
	}
}

func TestChanNetworkStats(t *testing.T) {
	n := NewChanNetwork(Unshaped(), rand.New(rand.NewSource(5)))
	defer n.Close()
	s := newSink()
	n.Attach(1, s.handler)
	n.Attach(2, func(wire.NodeID, []byte) {})
	n.Send(2, 1, make([]byte, 100))
	s.waitFor(t, 1, time.Second)
	if st := n.Stats(); st.Packets != 1 || st.Bytes != 100 {
		t.Fatalf("stats: %d pkts %d bytes", st.Packets, st.Bytes)
	}
}

func TestChanNetworkSenderDataIsolation(t *testing.T) {
	// Mutating the buffer after Send must not corrupt delivery.
	n := NewChanNetwork(Unshaped(), rand.New(rand.NewSource(6)))
	defer n.Close()
	s := newSink()
	n.Attach(1, s.handler)
	n.Attach(2, func(wire.NodeID, []byte) {})
	buf := []byte("original")
	n.Send(2, 1, buf)
	copy(buf, "CLOBBER!")
	s.waitFor(t, 1, time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !bytes.Equal(s.msgs[0].data, []byte("original")) {
		t.Fatal("delivered data aliases sender buffer")
	}
}

func TestTCPNetworkLargeFrames(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	s := newSink()
	n.Attach(1, s.handler)
	n.Attach(2, func(wire.NodeID, []byte) {})
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(big)
	if err := n.Send(2, 1, big); err != nil {
		t.Fatal(err)
	}
	s.waitFor(t, 1, 5*time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !bytes.Equal(s.msgs[0].data, big) {
		t.Fatal("large frame corrupted")
	}
}

func TestProfiles(t *testing.T) {
	lan, pl := LAN(), PlanetLab()
	if lan.BandwidthBps <= pl.BandwidthBps {
		t.Fatal("LAN should be faster than PlanetLab")
	}
	if lan.LatencyMax >= pl.LatencyMin {
		t.Fatal("LAN latency should be below PlanetLab latency")
	}
	if Unshaped().BandwidthBps != 0 {
		t.Fatal("unshaped should be unlimited")
	}
}
