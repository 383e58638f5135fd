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
// semantics: frames of a burst not yet handed over when the receiver
// crashes are lost with the crash — even if the node revives before their
// turn comes. Only packets sent after the revive land.
func TestChanNetworkFailDropsInFlightPackets(t *testing.T) {
	n := NewChanNetwork(Unshaped(), nil)
	defer n.Close()
	s := newSink()
	entered, proceed := make(chan struct{}), make(chan struct{})
	n.Attach(1, func(from wire.NodeID, data []byte) {
		if data[0] == 0 {
			close(entered)
			<-proceed // hold frame 1 while the crash lands
		}
		s.handler(from, data)
	})
	n.Attach(2, func(wire.NodeID, []byte) {})

	burst := [][]byte{{0}, {1}, {2}, {3}, {4}}
	if err := n.SendOwned(2, 1, burst, func() {}); err != nil {
		t.Fatal(err)
	}
	<-entered
	n.Fail(1)
	n.Revive(1)
	if n.Down(1) {
		t.Fatal("revive failed")
	}
	close(proceed)
	if err := n.Send(2, 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	s.waitFor(t, 2, 2*time.Second)
	n.Close() // every delivery goroutine has returned
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.msgs) != 2 {
		t.Fatalf("%d frame(s) delivered, want frame 1 and the post-revive one", len(s.msgs))
	}
	for _, m := range s.msgs {
		if !bytes.Equal(m.data, []byte{0}) && !bytes.Equal(m.data, []byte("after")) {
			t.Fatalf("frame %v delivered after the crash", m.data)
		}
	}
}

// Close racing concurrent sends: every send either is refused or finishes
// its delivery before Close returns (run under -race).
func TestChanNetworkCloseVsSendRace(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		n := NewChanNetwork(Unshaped(), nil)
		for id := wire.NodeID(1); id <= 3; id++ {
			n.Attach(id, func(wire.NodeID, []byte) {}) //nolint:errcheck
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				to := wire.NodeID(2 + g%2)
				for i := 0; i < 50; i++ {
					if err := n.Send(1, to, []byte("race")); err != nil {
						t.Errorf("send: %v", err)
					}
				}
			}(g)
		}
		close(start)
		time.Sleep(time.Duration(iter%3) * time.Microsecond)
		n.Close()
		wg.Wait()
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
