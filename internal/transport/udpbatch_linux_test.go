//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

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
// datagrams carry no frames, so no delivery slab is cut either: what the
// endpoints keep is their bookkeeping, and staging only if they hold it.
func TestIdleUDPSocketsHoldNoStaging(t *testing.T) {
	const endpoints, rounds = 64, 4
	const bound = 2 << 20
	base := liveHeap()

	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	accs := make([]*UDPAcceptor, endpoints)
	for i := range accs {
		a, err := listenUDP("127.0.0.1:0", 0, UDPConfig{}, func(wire.NodeID, []byte) bool { return true }, NewCounters())
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		accs[i] = a
	}
	for seq := uint32(0); seq < rounds; seq++ {
		for _, a := range accs {
			if _, err := client.WriteToUDPAddrPort(datagramOf(seq, nil), netip.MustParseAddrPort(a.Addr())); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every endpoint acks what it took; an ack leaves after the batch's
	// staging went back, on the loop's way to its next (empty) read.
	acked := make(map[string]bool)
	buf := make([]byte, 64)
	client.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	for len(acked) < endpoints {
		n, from, err := client.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("%d of %d endpoints acked: %v", len(acked), endpoints, err)
		}
		if n == udpAckLen && buf[4] == dgKindAck {
			acked[from.String()] = true
		}
	}
	for i, a := range accs {
		if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
			return a.ctr.Snapshot().Get("datagrams_in") == rounds
		}) {
			t.Fatalf("endpoint %d accepted %d of %d datagrams", i, a.ctr.Snapshot().Get("datagrams_in"), rounds)
		}
	}

	var grown int64
	if !simnet.Eventually(5*time.Second, 10*time.Millisecond, func() bool {
		grown = int64(liveHeap()) - int64(base)
		return grown < bound
	}) {
		t.Fatalf("%d idle UDP endpoints hold %d KiB of live heap, want < %d KiB: staging is held per socket",
			endpoints, grown>>10, bound>>10)
	}
	t.Logf("%d idle UDP endpoints: %d KiB of live heap", endpoints, grown>>10)
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
