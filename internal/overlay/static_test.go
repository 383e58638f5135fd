package overlay

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Static has one body per behaviour; these tests run each behaviour on
// both link flavours. What only one flavour has stays in its own test:
// tcp_peer_test.go (shared host conn, broken-conn reconnect, queue-full
// surfacing, frame integrity under concurrent writers, large frames) and
// TestStaticUDPLossWatcher below.

// freeBook reserves loopback TCP ports and returns an address book. The
// ports are bound again later, so another process can take one in between:
// only the tests of pre-agreed-book behaviour use it; the rest run on the
// loopback networks, which bind each port once.
func freeBook(t *testing.T, ids ...wire.NodeID) map[wire.NodeID]string {
	t.Helper()
	book := make(map[wire.NodeID]string, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		book[id] = ln.Addr().String()
		ln.Close()
	}
	return book
}

// freeUDPBook reserves loopback UDP ports and returns an address book.
func freeUDPBook(t *testing.T, ids ...wire.NodeID) map[wire.NodeID]string {
	t.Helper()
	book := make(map[wire.NodeID]string, len(ids))
	for _, id := range ids {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		book[id] = pc.LocalAddr().String()
		pc.Close()
	}
	return book
}

var flavours = []struct {
	name     string
	static   func(book map[wire.NodeID]string) *Static
	loopback func() *Static
	book     func(t *testing.T, ids ...wire.NodeID) map[wire.NodeID]string
}{
	{"tcp", NewStaticTCP, NewTCPNetwork, freeBook},
	{"udp",
		func(book map[wire.NodeID]string) *Static { return NewStaticUDP(book, UDPOptions{}) },
		func() *Static { return NewUDPNetwork(UDPOptions{}) },
		freeUDPBook},
}

type tcpSink struct {
	mu   sync.Mutex
	msgs [][]byte
	from []wire.NodeID
}

func (s *tcpSink) handler(from wire.NodeID, data []byte) {
	s.mu.Lock()
	s.msgs = append(s.msgs, data)
	s.from = append(s.from, from)
	s.mu.Unlock()
}

func (s *tcpSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *tcpSink) wait(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	if !simnet.Eventually(timeout, 2*time.Millisecond, func() bool { return s.count() >= n }) {
		t.Fatalf("timeout: %d of %d messages", s.count(), n)
	}
}

func nop(wire.NodeID, []byte) {}

// sendUntil keeps sending until the sink has grown past n: datagram
// delivery is best effort and a fresh peer resolves lazily.
func sendUntil(t *testing.T, tr *Static, from, to wire.NodeID, sink *tcpSink, n int, what string) {
	t.Helper()
	if !simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
		tr.Send(from, to, []byte(what)) //nolint:errcheck
		return sink.count() > n
	}) {
		t.Fatalf("no delivery %s", what)
	}
}

func TestStaticDelivery(t *testing.T) {
	for _, fl := range flavours {
		mk := map[string]func(t *testing.T) *Static{
			"book":     func(t *testing.T) *Static { return fl.static(fl.book(t, 1, 2)) },
			"loopback": func(*testing.T) *Static { return fl.loopback() },
		}
		for kind, mk := range mk {
			t.Run(fl.name+"/"+kind, func(t *testing.T) {
				tr := mk(t)
				defer tr.Close()
				sink := &tcpSink{}
				if err := tr.Attach(1, sink.handler); err != nil {
					t.Fatal(err)
				}
				if err := tr.Attach(2, nop); err != nil {
					t.Fatal(err)
				}
				if _, ok := tr.Addr(1); !ok {
					t.Fatal("missing addr")
				}
				for i := 0; i < 5; i++ {
					if err := tr.Send(2, 1, []byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
				}
				sink.wait(t, 5, 5*time.Second)
				sink.mu.Lock()
				defer sink.mu.Unlock()
				for i, f := range sink.from {
					if f != 2 {
						t.Fatalf("msg %d from %d", i, f)
					}
				}
			})
		}
	}
}

// Two *separate transports* sharing one book — the cross-process scenario
// collapsed into one test binary.
func TestStaticCrossProcess(t *testing.T) {
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			book := fl.book(t, 10, 20)
			procA, procB := fl.static(book), fl.static(book)
			defer procA.Close()
			defer procB.Close()
			sink := &tcpSink{}
			if err := procA.Attach(10, sink.handler); err != nil {
				t.Fatal(err)
			}
			if err := procB.Attach(20, nop); err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0x42}, 4096)
			if err := procB.Send(20, 10, payload); err != nil {
				t.Fatal(err)
			}
			sink.wait(t, 1, 5*time.Second)
			sink.mu.Lock()
			defer sink.mu.Unlock()
			if !bytes.Equal(sink.msgs[0], payload) {
				t.Fatal("payload corrupted across transports")
			}
		})
	}
}

// A book transport refuses ids outside the book and cannot know whether
// they are down; a loopback network binds any id and reads a never-attached
// one as down. Sending to an unknown node is a silent drop either way
// (datagram semantics), and no id attaches twice.
func TestStaticUnknownAndDuplicateNodes(t *testing.T) {
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			tr := fl.static(fl.book(t, 1))
			defer tr.Close()
			lo := fl.loopback()
			defer lo.Close()
			if err := tr.Attach(99, nop); err == nil {
				t.Fatal("attach outside book accepted")
			}
			if tr.Down(99) {
				t.Fatal("book transport reports an unattached id down")
			}
			if !lo.Down(99) {
				t.Fatal("loopback network reports a never-attached id up")
			}
			for _, s := range []*Static{tr, lo} {
				if err := s.Attach(1, nop); err != nil {
					t.Fatal(err)
				}
				if s.Down(1) {
					t.Fatal("attached node reads as down")
				}
				if err := s.Attach(1, nop); err == nil {
					t.Fatal("duplicate attach accepted")
				}
				if err := s.Send(1, 99, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// The book is the whole routing table. B is not in A's book; once B has
// spoken to A, a send from A to B (Send or SendOwned) is still dropped and
// its frames counted unroutable: none is queued, no peer is made for the id
// B's frames claimed, SendOwned's release fires exactly once, and nothing is
// left running after Close.
func TestStaticUnroutableMakesNoPeer(t *testing.T) {
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			const a, b = wire.NodeID(1), wire.NodeID(2)
			sA := fl.static(nil)
			sink := &tcpSink{}
			if err := sA.AttachDynamic(a, sink.handler); err != nil {
				t.Fatal(err)
			}
			addrA, _ := sA.Addr(a)
			// B's process knows A; A's process does not know B.
			sB := fl.static(map[wire.NodeID]string{a: addrA})
			if err := sB.AttachDynamic(b, nop); err != nil {
				t.Fatal(err)
			}
			sendUntil(t, sB, b, a, sink, 0, "from B to A")

			before, running := sA.Counters(), runtime.NumGoroutine()
			dropped := func(want int64) {
				t.Helper()
				d := sA.Counters().Sub(before)
				if got := d.Get("enqueued"); got != 0 {
					t.Fatalf("%d frames queued toward an id outside the book, want 0", got)
				}
				if got := d.Get("unroutable"); got != want {
					t.Fatalf("unroutable moved by %d, want %d", got, want)
				}
			}
			if err := sA.Send(a, b, []byte("to an id the book lacks")); err != nil {
				t.Fatal(err)
			}
			dropped(1)
			var released atomic.Int32
			if err := sA.SendOwned(a, b, [][]byte{[]byte("owned"), []byte("burst")}, func() { released.Add(1) }); err != nil {
				t.Fatal(err)
			}
			if got := released.Load(); got != 1 {
				t.Fatalf("SendOwned released %d times, want 1", got)
			}
			dropped(3)
			if !simnet.Eventually(time.Second, time.Millisecond, func() bool { return runtime.NumGoroutine() <= running }) {
				t.Fatalf("%d goroutines after the sends, %d before: a peer was made", runtime.NumGoroutine(), running)
			}

			sB.Close()
			sA.Close()
			if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool { return runtime.NumGoroutine() <= baseline }) {
				t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), baseline)
			}
		})
	}
}

// Churn injection and detach, on a pre-agreed book and on dynamically
// attached ids (the facade's relays grown on the fly): a failed node
// neither sends nor receives, a revived one picks up where it left off, a
// detached one is gone.
func TestStaticFailReviveAndDetach(t *testing.T) {
	for _, fl := range flavours {
		for _, dynamic := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dynamic=%v", fl.name, dynamic), func(t *testing.T) {
				var tr *Static
				attach := (*Static).Attach
				if dynamic {
					tr, attach = fl.static(nil), (*Static).AttachDynamic
				} else {
					tr = fl.static(fl.book(t, 1, 2))
				}
				defer tr.Close()
				sink := &tcpSink{}
				if err := attach(tr, 1, sink.handler); err != nil {
					t.Fatal(err)
				}
				if err := attach(tr, 2, nop); err != nil {
					t.Fatal(err)
				}
				sendUntil(t, tr, 2, 1, sink, 0, "before Fail")

				tr.Fail(1)
				if !tr.Down(1) {
					t.Fatal("failed node not Down")
				}
				time.Sleep(50 * time.Millisecond) // frames in flight at Fail land
				n := sink.count()
				tr.Send(2, 1, []byte("while dead")) //nolint:errcheck
				time.Sleep(50 * time.Millisecond)
				if sink.count() != n {
					t.Fatal("failed node received data")
				}
				if err := tr.Send(1, 2, []byte("x")); err == nil {
					t.Fatal("send from failed node succeeded")
				}
				tr.Revive(1)
				sendUntil(t, tr, 2, 1, sink, n, "after Revive")
				if st := tr.Stats(); st.Packets == 0 || st.Bytes == 0 {
					t.Fatalf("Stats() = %d pkts %d bytes, want nonzero", st.Packets, st.Bytes)
				}

				tr.Detach(1)
				n = sink.count()
				if err := tr.Send(2, 1, []byte("gone")); err != nil {
					t.Fatal(err) // datagram semantics: no error, just dropped
				}
				time.Sleep(50 * time.Millisecond)
				if sink.count() != n {
					t.Fatal("detached node received data")
				}
			})
		}
	}
}

func TestStaticManySenders(t *testing.T) {
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			ids := []wire.NodeID{1, 2, 3, 4, 5}
			tr := fl.loopback()
			defer tr.Close()
			sink := &tcpSink{}
			if err := tr.Attach(1, sink.handler); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids[1:] {
				if err := tr.Attach(id, nop); err != nil {
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
			sink.wait(t, len(ids[1:])*per, 10*time.Second)
		})
	}
}

// Detach + re-Attach gives a node a fresh port; because peers resolve the
// address at dial time, senders must follow it there.
func TestStaticReattachNewAddress(t *testing.T) {
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			n := fl.loopback()
			defer n.Close()
			sink := &tcpSink{}
			if err := n.Attach(1, sink.handler); err != nil {
				t.Fatal(err)
			}
			if err := n.Attach(2, nop); err != nil {
				t.Fatal(err)
			}
			addr1, _ := n.Addr(1)
			sendUntil(t, n, 2, 1, sink, 0, "before re-attach")
			n.Detach(1)
			if _, ok := n.Addr(1); ok {
				t.Fatal("detached ephemeral address still in the book")
			}
			if err := n.Attach(1, sink.handler); err != nil {
				t.Fatal(err)
			}
			addr2, _ := n.Addr(1)
			if addr1 == addr2 {
				t.Skip("kernel reissued the same ephemeral port; nothing to follow")
			}
			sendUntil(t, n, 2, 1, sink, sink.count(), "to the node's new address")
		})
	}
}

// Counters are cumulative — the bench ledger and slicenode's shutdown line
// read them as deltas and totals — so retiring peers and listeners (Detach,
// and Close's final drain) must never step any of them backwards; and the
// views are the counters they name.
func TestStaticCountersMonotonic(t *testing.T) {
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			tr := fl.loopback()
			sink := &tcpSink{}
			for id := wire.NodeID(1); id <= 3; id++ {
				if err := tr.Attach(id, sink.handler); err != nil {
					t.Fatal(err)
				}
			}
			sendUntil(t, tr, 3, 1, sink, 0, "to node 1")
			sendUntil(t, tr, 3, 2, sink, sink.count(), "to node 2")
			check := func(when string, before, after metrics.Snapshot) {
				t.Helper()
				after.Each(func(name string, v int64) {
					if v < before.Get(name) {
						t.Fatalf("%s: %s went %d → %d", when, name, before.Get(name), v)
					}
				})
			}
			s0 := tr.Counters()
			if s0.Get("frames_out") == 0 || s0.Get("frames_in") == 0 || (fl.name == "udp") != (s0.Get("datagrams_out") > 0) {
				t.Fatalf("nothing counted before the detach: %v", s0)
			}
			tr.Detach(1)
			s1 := tr.Counters()
			check("after Detach", s0, s1)
			tr.Close()
			// Closed, the counters hold still, so the views can be read
			// against them.
			s2 := tr.Counters()
			check("after Close", s1, s2)
			if st, p := tr.Stats(), tr.PeerStats(); st.Packets != p.FramesOut || p.FramesOut != s2.Get("frames_out") || p.Enqueued != s2.Get("enqueued") {
				t.Fatalf("views %+v and %+v disagree with the counters %v", st, p, s2)
			}
		})
	}
}

// Loss watchers: registration, threshold filtering, and removal. The wire
// path that feeds reportLoss (ack-derived smoothed loss) is exercised in
// internal/transport; here the dispatch contract is pinned directly. The
// stream flavour measures no loss: its watchers register as no-ops.
func TestStaticUDPLossWatcher(t *testing.T) {
	tr := NewStaticUDP(nil, UDPOptions{})
	defer tr.Close()
	d := tr.link.(*datagram)
	var mu sync.Mutex
	var fired []float64
	remove := tr.AddLossWatcher(0.05, func(to wire.NodeID, rate float64) {
		mu.Lock()
		fired = append(fired, rate)
		mu.Unlock()
	})
	d.reportLoss(7, 0.01) // below threshold: silent
	d.reportLoss(7, 0.20) // above: fires
	mu.Lock()
	n := len(fired)
	mu.Unlock()
	if n != 1 || fired[0] != 0.20 {
		t.Fatalf("watcher fired %d times (%v), want once at 0.20", n, fired)
	}
	remove()
	d.reportLoss(7, 0.50)
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 {
		t.Fatal("removed watcher still fired")
	}
	tcp := NewStaticTCP(nil)
	defer tcp.Close()
	tcp.AddLossWatcher(0, func(wire.NodeID, float64) { t.Error("stream flavour reported loss") })()
}

// The satellite race pin: Sends racing Close must never enqueue onto a
// reaped peer (stranded frames / double-recycled buffers show up under
// -race and in the counters), and once Close returns every further Send is
// a clean nil — never a spurious ErrSendQueueFull. The peer core's
// dead-then-reap exit order is what makes it safe; this pins it at the
// overlay layer.
func TestStaticCloseVsSendRace(t *testing.T) {
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			for iter := 0; iter < 10; iter++ {
				tr := fl.loopback()
				for id := wire.NodeID(1); id <= 3; id++ {
					tr.Attach(id, nop) //nolint:errcheck
				}
				start := make(chan struct{})
				closed := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						<-start
						to := wire.NodeID(2 + g%2)
						payload := []byte("race")
						for {
							tr.Send(1, to, payload) //nolint:errcheck
							select {
							case <-closed:
								// Close has fully returned: from here on Send
								// must be a silent no-op, not a congestion
								// report.
								if err := tr.Send(1, to, payload); err != nil {
									t.Errorf("send after Close: %v", err)
								}
								return
							default:
							}
						}
					}(g)
				}
				close(start)
				time.Sleep(time.Duration(iter%3) * time.Millisecond)
				tr.Close()
				close(closed)
				wg.Wait()
			}
		})
	}
}
