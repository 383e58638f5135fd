package infoslicing

import (
	"bytes"
	"testing"
	"time"

	"infoslicing/internal/simnet"
)

// The facade over congestion-controlled datagrams: WithTransport(UDPSpec)
// swaps the in-memory channel transport for loopback UDP through the
// datagram peer layer, and the public API must behave identically — grow,
// dial, send, receive.
func TestFacadeUDPLoopback(t *testing.T) {
	simnet.ReportSeed(t)
	nw := New(WithSeed(13), WithTransport(UDPSpec{}))
	defer nw.Close()
	if _, err := nw.Grow(9); err != nil {
		t.Fatal(err)
	}
	conn, err := nw.Dial(DialSpec{L: 3, D: 2, DPrime: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		msg := bytes.Repeat([]byte{byte(i + 1)}, 1000+i*500)
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-conn.Received():
			if !bytes.Equal(got, msg) {
				t.Fatalf("message %d corrupted over loopback UDP", i)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("message %d not delivered", i)
		}
	}
	st := nw.Stats()
	if st.Packets == 0 || st.Bytes == 0 {
		t.Fatalf("transport counters did not move: %+v", st)
	}
	checkBooks(t, nw)
}

// Injected datagram loss within the redundancy budget: with d'=d+1 the flow
// tolerates one erasure per round, so 2% uniform socket-level loss must not
// stop delivery — the transport has no retransmission to restore it with.
func TestFacadeUDPLoopbackWithLoss(t *testing.T) {
	simnet.ReportSeed(t)
	nw := New(WithSeed(17), WithTransport(UDPSpec{Loss: 0.02}))
	defer nw.Close()
	if _, err := nw.Grow(9); err != nil {
		t.Fatal(err)
	}
	conn, err := nw.Dial(DialSpec{L: 2, D: 2, DPrime: 3, EstablishTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	delivered := 0
	const total = 20
	for i := 0; i < total; i++ {
		msg := bytes.Repeat([]byte{byte(i + 1)}, 800)
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-conn.Received():
			if !bytes.Equal(got, msg) {
				t.Fatalf("message %d corrupted", i)
			}
			delivered++
		case <-time.After(5 * time.Second):
			// A round that lost >d'−d slices is gone for good (no transport
			// retransmission, no app-level retry here); count and move on.
		}
	}
	if delivered < total*9/10 {
		t.Fatalf("delivered %d/%d under 2%% loss; redundancy d'=d+1 should absorb it", delivered, total)
	}
	checkBooks(t, nw)
}

// The api_redesign pin: every TransportSpec constructs through the one
// WithTransport path, and NO combination of options panics — the last spec
// simply wins.
func TestWithTransportOptionCombinations(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		kind transportKind
	}{
		{"default", nil, chanKind},
		{"nil spec", []Option{WithTransport(nil)}, chanKind},
		{"tcp", []Option{WithTransport(TCPSpec{})}, tcpKind},
		{"udp", []Option{WithTransport(UDPSpec{Loss: 0.01})}, udpKind},
		{"virtual", []Option{WithTransport(VirtualSpec{})}, virtualKind},
		{"virtual, caller's clock", []Option{WithTransport(VirtualSpec{Clock: simnet.NewVirtualClock()})}, virtualKind},
		{"tcp then virtual: last wins", []Option{WithTransport(TCPSpec{}), WithTransport(VirtualSpec{})}, virtualKind},
		{"virtual then tcp: last wins", []Option{WithTransport(VirtualSpec{}), WithTransport(TCPSpec{})}, tcpKind},
		{"udp then default stays udp", []Option{WithTransport(UDPSpec{}), WithTransport(nil)}, udpKind},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := New(append([]Option{WithSeed(1)}, tc.opts...)...)
			defer nw.Close()
			if nw.cfg.kind != tc.kind {
				t.Fatalf("transport kind = %d, want %d", nw.cfg.kind, tc.kind)
			}
			// Cross-substrate invariants: a virtual network exposes its
			// clock, every other substrate runs on the wall clock.
			if (nw.VirtualClock() != nil) != (tc.kind == virtualKind) {
				t.Fatalf("VirtualClock() = %v under kind %d", nw.VirtualClock(), tc.kind)
			}
		})
	}
}

// VirtualSpec with a nil Clock: the facade creates one and exposes it, so
// callers can still drive the universe.
func TestVirtualSpecNilClock(t *testing.T) {
	nw := New(WithSeed(3), WithTransport(VirtualSpec{}))
	defer nw.Close()
	vc := nw.VirtualClock()
	if vc == nil {
		t.Fatal("VirtualSpec{Clock: nil} left no clock to drive")
	}
	if _, err := nw.Grow(8); err != nil {
		t.Fatal(err)
	}
	conn, err := nw.Dial(DialSpec{L: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send([]byte("driven by the facade's own clock"))
	got := awaitRecv(t, vc, conn, 10*time.Second)
	if string(got) != "driven by the facade's own clock" {
		t.Fatalf("got %q", got)
	}
}

func awaitRecv(t *testing.T, vc *simnet.VirtualClock, conn *Conn, d time.Duration) []byte {
	t.Helper()
	var got []byte
	if !vc.AwaitCond(d, func() bool {
		select {
		case got = <-conn.Received():
			return true
		default:
			return false
		}
	}) {
		t.Fatal("message not delivered in virtual time")
	}
	return got
}
