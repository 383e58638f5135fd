//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// liveHeap is the heap still reachable after the collector has run twice:
// once to move sync.Pool contents to the victim cache, once to drop them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Sixty-four endpoints take traffic, ack it and go idle: their read loops
// park in the poller, and a parked socket holds no recvmmsg staging. Held
// per socket, the staging alone is 64 × RecvBatch × MaxUDPPayload = 32 MiB
// of live heap; borrowed per batch, it is back in the pool by the time the
// loop sleeps, and the pool is the collector's once nothing is in hand. The
// datagrams carry no frames, so nothing is copied for delivery either: what
// the endpoints keep is their bookkeeping, and staging only if they hold it.
func TestIdleUDPSocketsHoldNoStaging(t *testing.T) {
	const endpoints, rounds = 64, 4
	const bound = 2 << 20
	base := liveHeap()
	accs := udpEndpoints(t, endpoints, NewCounters, func(int, []byte) {})
	feedUntilAcked(t, accs, rounds, nil)
	for i, a := range accs {
		if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
			return a.ctr.Snapshot().Get("datagrams_in") == rounds
		}) {
			t.Fatalf("endpoint %d accepted %d of %d datagrams", i, a.ctr.Snapshot().Get("datagrams_in"), rounds)
		}
	}
	grown, ok := heapSettlesBelow(base, bound)
	if !ok {
		t.Fatalf("%d idle UDP endpoints hold %d KiB of live heap, want < %d KiB: staging is held per socket",
			endpoints, grown>>10, bound>>10)
	}
	t.Logf("%d idle UDP endpoints: %d KiB of live heap", endpoints, grown>>10)
}

// A delivered view is its handler's forever, so what it keeps alive is
// what the link costs per frame a handler holds on to. Sixty-four endpoints
// each take one datagram of one 64-byte frame and ack it (an ack leaves
// after its datagram was delivered). When every handler keeps its view,
// each view pins its own datagram's copy (72 bytes), not a 64 KiB delivery
// slab (64 × 64 KiB = 4 MiB); when the handlers keep nothing, the read
// loops hold no delivery memory between batches either. The endpoints
// share one counter block, so their bookkeeping stays a few KiB each.
func TestUDPViewPinsOnlyItsDatagram(t *testing.T) {
	const endpoints = 64
	const bound = 1 << 20
	payload := bytes.Repeat([]byte{0xA5}, 64)
	for _, keep := range []bool{true, false} {
		var mu sync.Mutex
		kept := make([][]byte, endpoints)
		base := liveHeap()
		ctr := NewCounters()
		accs := udpEndpoints(t, endpoints, func() *metrics.ShardedCounter { return ctr }, func(i int, view []byte) {
			if keep {
				mu.Lock()
				kept[i] = view
				mu.Unlock()
			}
		})
		feedUntilAcked(t, accs, 1, frame(7, payload))
		grown, ok := heapSettlesBelow(base, bound)
		if !ok {
			t.Fatalf("keep=%v: %d endpoints after one 64-byte frame each hold %d KiB of live heap, want < %d KiB",
				keep, endpoints, grown>>10, bound>>10)
		}
		t.Logf("keep=%v: %d endpoints after one frame each: %d KiB of live heap", keep, endpoints, grown>>10)
		mu.Lock()
		for i, v := range kept {
			if keep && (!bytes.Equal(v, payload) || cap(v) != len(payload)) {
				t.Fatalf("endpoint %d kept %d bytes (cap %d), want its 64-byte payload capped", i, len(v), cap(v))
			}
		}
		mu.Unlock()
		for _, a := range accs {
			a.Close()
		}
	}
}

// udpEndpoints starts n loopback acceptors counting into ctr(), closed
// when the test ends; endpoint i hands each payload it takes to keep(i, view).
func udpEndpoints(t *testing.T, n int, ctr func() *metrics.ShardedCounter, keep func(i int, view []byte)) []*UDPAcceptor {
	t.Helper()
	accs := make([]*UDPAcceptor, n)
	for i := range accs {
		a, err := listenUDP("127.0.0.1:0", 0, UDPConfig{}, func(_ wire.NodeID, view []byte) bool {
			keep(i, view)
			return true
		}, ctr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		accs[i] = a
	}
	return accs
}

// feedUntilAcked sends rounds ack-requesting datagrams carrying body to
// every endpoint and returns once each has acked. An ack leaves after the
// batch's staging went back, on the loop's way to its next (empty) read.
func feedUntilAcked(t *testing.T, accs []*UDPAcceptor, rounds uint32, body []byte) {
	t.Helper()
	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for seq := uint32(0); seq < rounds; seq++ {
		for _, a := range accs {
			if _, err := client.WriteToUDPAddrPort(datagramOf(seq, body), netip.MustParseAddrPort(a.Addr())); err != nil {
				t.Fatal(err)
			}
		}
	}
	acked := make(map[string]bool)
	buf := make([]byte, 64)
	client.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	for len(acked) < len(accs) {
		n, from, err := client.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("%d of %d endpoints acked: %v", len(acked), len(accs), err)
		}
		if n == udpAckLen && buf[4] == dgKindAck {
			acked[from.String()] = true
		}
	}
}

// heapSettlesBelow waits up to five seconds for the live heap to grow less
// than bound over base, and reports the last growth it read.
func heapSettlesBelow(base uint64, bound int64) (grown int64, ok bool) {
	ok = simnet.Eventually(5*time.Second, 10*time.Millisecond, func() bool {
		grown = int64(liveHeap()) - int64(base)
		return grown < bound
	})
	return grown, ok
}

// A read on an empty socket borrows staging for recvmmsg, finds nothing
// (EAGAIN) and gives the staging back before the goroutine parks; the read
// deadline then ends the wait with nothing borrowed. The next datagram is
// received into freshly borrowed staging, and release gives that back too.
func TestEmptySocketReadReturnsStaging(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	br := newBatchReceiver(rx, 8)

	rx.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
	if n, err := br.recv(); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("empty socket: recv = %d, %v; want a deadline error", n, err)
	}
	if br.slab != nil {
		t.Fatal("a read that parked on an empty socket still holds its staging")
	}

	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	msg := []byte("after the wait")
	if _, err := tx.Write(msg); err != nil {
		t.Fatal(err)
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	n, err := br.recv()
	if n != 1 || err != nil || !bytes.Equal(br.bufs[0][:br.lens[0]], msg) {
		t.Fatalf("recv after the wait = %d, %v", n, err)
	}
	if br.addrs[0] != netip.MustParseAddrPort(tx.LocalAddr().String()) {
		t.Fatalf("source %v, want %v", br.addrs[0], tx.LocalAddr())
	}
	br.release()
	if br.slab != nil || br.bufs[0] != nil || br.iovs[0].Base != nil {
		t.Fatal("release left a pointer into the staging it gave back")
	}
}
