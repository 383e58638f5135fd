package overlay

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// Satellite: many goroutines — relay shard workers and the control loop in
// production — hammer Send toward one receiver. The per-peer writer
// goroutine is the only thing that touches the socket, so frames must
// arrive intact and self-consistent: the pre-peer transport let concurrent
// Sends interleave partial writes on the shared conn.
func TestTCPNetworkConcurrentSendersFrameIntegrity(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()

	type rec struct {
		from wire.NodeID
		data []byte
	}
	var mu sync.Mutex
	var got []rec
	if err := n.Attach(1, func(from wire.NodeID, data []byte) {
		mu.Lock()
		got = append(got, rec{from, data})
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	const senders = 8
	const per = 200
	for s := 2; s < 2+senders; s++ {
		if err := n.Attach(wire.NodeID(s), func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	// Every frame: sender id ‖ sequence ‖ a fill byte derived from both, so
	// any cross-frame interleaving or truncation is detectable.
	var wg sync.WaitGroup
	for s := 2; s < 2+senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < per; i++ {
				binary.BigEndian.PutUint32(buf, uint32(s))
				binary.BigEndian.PutUint32(buf[4:], uint32(i))
				fill := byte(s*31 + i)
				for j := 8; j < len(buf); j++ {
					buf[j] = fill
				}
				for {
					if err := n.Send(wire.NodeID(s), 1, buf); err == nil {
						break
					}
					time.Sleep(50 * time.Microsecond) // queue full: yield, retry
				}
			}
		}(s)
	}
	wg.Wait()
	if !simnet.Eventually(10*time.Second, time.Millisecond, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= senders*per
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("timeout: %d of %d frames", len(got), senders*per)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := make(map[[2]uint32]bool)
	for _, r := range got {
		if len(r.data) != 64 {
			t.Fatalf("frame from %d has %d bytes, want 64 (framing corrupted)", r.from, len(r.data))
		}
		s := binary.BigEndian.Uint32(r.data)
		i := binary.BigEndian.Uint32(r.data[4:])
		if wire.NodeID(s) != r.from {
			t.Fatalf("frame claims sender %d but arrived from %d (frames interleaved)", s, r.from)
		}
		fill := byte(int(s)*31 + int(i))
		for j := 8; j < len(r.data); j++ {
			if r.data[j] != fill {
				t.Fatalf("frame %d/%d corrupted at byte %d: %x != %x", s, i, j, r.data[j], fill)
			}
		}
		key := [2]uint32{s, i}
		if seen[key] {
			t.Fatalf("frame %d/%d delivered twice", s, i)
		}
		seen[key] = true
	}
}

// Satellite: the pre-peer TCPNetwork.Send reported nil on a failed write
// and silently dropped the conn even when the receiver was alive. Now a
// broken connection is a counted send failure and the peer re-dials: break
// every accepted conn under the receiver and delivery must resume, with
// the failure and the reconnect visible in the counters.
func TestTCPNetworkSendFailureCountedAndReconnects(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	var mu sync.Mutex
	var got []string
	if err := n.Attach(1, func(_ wire.NodeID, data []byte) {
		mu.Lock()
		got = append(got, string(data))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(2, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	has := func(want string) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, g := range got {
			if g == want {
				return true
			}
		}
		return false
	}
	n.Send(2, 1, []byte("pre")) //nolint:errcheck
	if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool { return has("pre") }) {
		t.Fatal("no delivery before the break")
	}
	// Sever the established conn server-side; the client's next writes hit
	// a dead socket. The write error surfaces asynchronously (the first
	// write after a hangup can land in the kernel buffer), so keep sending
	// until the failure is counted.
	n.mu.RLock()
	n.local[1].endpoint.(*transport.Acceptor).DropConns()
	n.mu.RUnlock()
	if !simnet.Eventually(10*time.Second, time.Millisecond, func() bool {
		n.Send(2, 1, []byte("during")) //nolint:errcheck
		return n.Counters().Get("send_failures") >= 1
	}) {
		t.Fatalf("broken conn never surfaced as a send failure: %v", n.Counters())
	}
	if !simnet.Eventually(10*time.Second, time.Millisecond, func() bool {
		n.Send(2, 1, []byte("post")) //nolint:errcheck
		return has("post")
	}) {
		t.Fatalf("no delivery after reconnect: %v", n.Counters())
	}
	if st := n.Counters(); st.Get("reconnects") < 1 {
		t.Fatalf("counters %v, want ≥1 reconnect", st)
	}
}

// Queue-full sheds must surface as ErrSendQueueFull so data-path callers
// can count them (the relay's send_drops).
func TestTCPNetworkQueueFullSurfaces(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	block := make(chan struct{})
	defer close(block)
	if err := n.Attach(1, func(wire.NodeID, []byte) { <-block }); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(2, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32<<10)
	gotFull := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := n.Send(2, 1, payload); err == ErrSendQueueFull {
			gotFull = true
			break
		}
	}
	if !gotFull {
		t.Fatalf("flooding a stalled receiver never returned ErrSendQueueFull: %v", n.Counters())
	}
	if st := n.Counters(); st.Get("dropped") == 0 {
		t.Fatalf("counters %v, want counted drops", st)
	}
}

func TestStaticTCPManySendersShareHostConn(t *testing.T) {
	ids := []wire.NodeID{1, 2, 3, 4, 5}
	tr := NewTCPNetwork()
	defer tr.Close()
	var mu sync.Mutex
	count := 0
	if err := tr.Attach(1, func(wire.NodeID, []byte) {
		mu.Lock()
		count++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		if err := tr.Attach(id, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	const per = 20
	var wg sync.WaitGroup
	for _, id := range ids[1:] {
		wg.Add(1)
		go func(id wire.NodeID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Send(id, 1, []byte(fmt.Sprintf("%d-%d", id, i))) //nolint:errcheck
			}
		}(id)
	}
	wg.Wait()
	if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count >= per*4
	}) {
		t.Fatal("timeout waiting for frames")
	}
	// One daemon per host: the 4 senders share one connection to node 1.
	tr.mu.RLock()
	conns := tr.local[1].endpoint.(*transport.Acceptor).ConnCount()
	tr.mu.RUnlock()
	if conns != 1 {
		t.Fatalf("%d inbound conns at node 1, want 1 shared host connection", conns)
	}
}
