package infoslicing

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"
)

func newNet(t *testing.T, relays int, seed int64) *Network {
	t.Helper()
	nw := New(WithSeed(seed))
	if _, err := nw.Grow(relays); err != nil {
		t.Fatal(err)
	}
	return nw
}

// checkBooks holds every relay of the network to its conservation laws
// (relay.Node.Books).
func checkBooks(t *testing.T, nw *Network) {
	t.Helper()
	nw.mu.Lock()
	nodes := slices.Collect(maps.Values(nw.nodes))
	nw.mu.Unlock()
	for _, n := range nodes {
		if err := n.Books(); err != nil {
			t.Error(err)
		}
	}
}

func recvOne(t *testing.T, c *Conn, timeout time.Duration) []byte {
	t.Helper()
	select {
	case m := <-c.Received():
		return m
	case <-time.After(timeout):
		t.Fatal("no message delivered")
		return nil
	}
}

func TestQuickstartFlow(t *testing.T) {
	nw := newNet(t, 12, 1)
	defer nw.Close()
	conn, err := nw.Dial(DialSpec{L: 3, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("Let's meet at 5pm")
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, conn, 10*time.Second); !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if conn.SetupTime() <= 0 {
		t.Fatal("setup time not recorded")
	}
	if s := conn.DestStage(); s < 1 || s > 3 {
		t.Fatalf("dest stage %d", s)
	}
	checkBooks(t, nw)
}

func TestDialValidation(t *testing.T) {
	nw := newNet(t, 4, 2)
	defer nw.Close()
	if _, err := nw.Dial(DialSpec{L: 5, D: 3}); err == nil {
		t.Fatal("oversized graph accepted")
	}
	if _, err := nw.Dial(DialSpec{L: 2, D: 2, Dest: 9999}); err == nil {
		t.Fatal("unknown dest accepted")
	}
}

func TestDialDefaults(t *testing.T) {
	nw := newNet(t, 8, 3)
	defer nw.Close()
	conn, err := nw.Dial(DialSpec{}) // L=3, D=2 defaults
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("defaults work")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, conn, 10*time.Second)
}

func TestPinnedDestination(t *testing.T) {
	nw := newNet(t, 10, 4)
	defer nw.Close()
	ids := nw.Nodes()
	want := ids[0]
	conn, err := nw.Dial(DialSpec{L: 2, D: 2, Dest: want})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Dest() != want {
		t.Fatalf("dest %d want %d", conn.Dest(), want)
	}
	conn.Send([]byte("pinned"))
	recvOne(t, conn, 10*time.Second)
}

func TestRedundantFlowSurvivesFailure(t *testing.T) {
	nw := newNet(t, 16, 5)
	defer nw.Close()
	conn, err := nw.Dial(DialSpec{L: 4, D: 2, DPrime: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Kill two relays that are not the destination.
	killed := 0
	for _, id := range nw.Nodes() {
		if id != conn.Dest() && killed < 2 {
			nw.Fail(id)
			killed++
		}
	}
	msg := bytes.Repeat([]byte("churn"), 500)
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, conn, 15*time.Second); !bytes.Equal(got, msg) {
		t.Fatal("corrupted under failure")
	}
	checkBooks(t, nw)
}

func TestMultipleConcurrentConns(t *testing.T) {
	nw := newNet(t, 20, 6)
	defer nw.Close()
	conns := make([]*Conn, 3)
	for i := range conns {
		c, err := nw.Dial(DialSpec{L: 3, D: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	for i, c := range conns {
		msg := []byte{byte(i), 0xAA, byte(i)}
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		if got := recvOne(t, c, 10*time.Second); !bytes.Equal(got, msg) {
			t.Fatalf("conn %d cross-talk: %v", i, got)
		}
	}
	checkBooks(t, nw)
}

// Two Conns ending at one destination relay share its Received() stream:
// each must get all of its own messages and none of the other's, and
// closing one must not cut the other off.
func TestConnsSharingDestinationKeepTheirMessages(t *testing.T) {
	const perConn = 20
	nw := newNet(t, 12, 5)
	defer nw.Close()
	a, err := nw.Dial(DialSpec{L: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := nw.Dial(DialSpec{L: 2, D: 2, Dest: a.Dest()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conns := []*Conn{a, b}
	for i := 0; i < perConn; i++ {
		for k, c := range conns {
			if err := c.Send([]byte{byte(k), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, c := range conns {
		seen := make(map[byte]bool)
		for len(seen) < perConn {
			m := recvOne(t, c, 10*time.Second)
			if len(m) != 2 || m[0] != byte(k) {
				t.Fatalf("conn %d received %v, another conn's message", k, m)
			}
			seen[m[1]] = true
		}
	}
	a.Close()
	msg := []byte("after the other conn closed")
	if err := b.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b, 10*time.Second); !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	checkBooks(t, nw)
}

func TestNetworkCloseIdempotentAndRejectsUse(t *testing.T) {
	nw := newNet(t, 6, 7)
	nw.Close()
	nw.Close()
	if _, err := nw.Grow(1); err == nil {
		t.Fatal("grow after close accepted")
	}
	if _, err := nw.Dial(DialSpec{}); err == nil {
		t.Fatal("dial after close accepted")
	}
}

// ExampleNetwork_Dial demonstrates the package quickstart end to end.
func ExampleNetwork_Dial() {
	nw := New(WithSeed(42))
	defer nw.Close()
	if _, err := nw.Grow(12); err != nil {
		panic(err)
	}
	conn, err := nw.Dial(DialSpec{L: 3, D: 2})
	if err != nil {
		panic(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("Let's meet at 5pm")); err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", <-conn.Received())
	// Output: Let's meet at 5pm
}

func TestASDiverseSelection(t *testing.T) {
	nw := newNet(t, 40, 9)
	defer nw.Close()
	// Every relay must have a routable synthetic address.
	for _, id := range nw.Nodes() {
		if _, ok := nw.Addr(id); !ok {
			t.Fatalf("relay %d has no address", id)
		}
	}
	if _, ok := nw.Addr(9999); ok {
		t.Fatal("unknown relay has an address")
	}
	conn, err := nw.Dial(DialSpec{L: 4, D: 2, ASDiverse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("diverse")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, conn, 10*time.Second); !bytes.Equal(got, []byte("diverse")) {
		t.Fatal("mismatch")
	}
}

func TestFailReviveRoundTrip(t *testing.T) {
	nw := newNet(t, 6, 8)
	defer nw.Close()
	id := nw.Nodes()[0]
	nw.Fail(id)
	nw.Revive(id)
	// Still usable end to end.
	conn, err := nw.Dial(DialSpec{L: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send([]byte("revived"))
	recvOne(t, conn, 10*time.Second)
	if nw.Stats().Packets == 0 {
		t.Fatal("no packets counted")
	}
	checkBooks(t, nw)
}
