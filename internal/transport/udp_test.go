package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infoslicing/internal/wire"
)

// startUDPAcceptor binds a loopback UDP socket and collects delivered
// frames (copying is unnecessary: the delivery slab contract says the
// payload view is ours forever).
type udpSink struct {
	mu     sync.Mutex
	frames []struct {
		from wire.NodeID
		data []byte
	}
	n atomic.Int64
}

func (s *udpSink) deliver(from wire.NodeID, payload []byte) bool {
	s.mu.Lock()
	s.frames = append(s.frames, struct {
		from wire.NodeID
		data []byte
	}{from, payload})
	s.mu.Unlock()
	s.n.Add(1)
	return true
}

func startUDPAcceptor(t *testing.T, ucfg UDPConfig) (*UDPAcceptor, *udpSink) {
	t.Helper()
	sink := &udpSink{}
	a, err := listenUDP("127.0.0.1:0", 0, ucfg, sink.deliver, NewCounters())
	if err != nil {
		t.Fatalf("listenUDP: %v", err)
	}
	t.Cleanup(a.Close)
	return a, sink
}

// lossRate reads the peer's smoothed loss rate toward its destination.
func (p *UDPPeer) lossRate() float64 {
	p.ackMu.Lock()
	defer p.ackMu.Unlock()
	return p.lossEWMA
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestUDPPeerRoundTrip(t *testing.T) {
	a, sink := startUDPAcceptor(t, UDPConfig{})
	p := NewUDPPeer(func() (string, bool) { return a.Addr(), true }, Config{}, UDPConfig{}, NewCounters())
	defer p.CloseNow()

	const frames = 200
	payloads := make([][]byte, frames)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 100+i)
		for !p.Enqueue(wire.NodeID(7), payloads[i]) {
			time.Sleep(time.Millisecond)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return sink.n.Load() == frames }) {
		t.Fatalf("delivered %d/%d frames", sink.n.Load(), frames)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, f := range sink.frames {
		if f.from != 7 {
			t.Fatalf("frame %d: sender = %d, want 7", i, f.from)
		}
		if !bytes.Equal(f.data, payloads[i]) {
			t.Fatalf("frame %d: payload mismatch (%d bytes vs %d)", i, len(f.data), len(payloads[i]))
		}
	}
	// The ack channel must have run: acks flowed back and at least one RTT
	// sample landed. Acks trail the data they acknowledge, so wait for them
	// like the frames above rather than sampling the instant of delivery.
	if !waitFor(t, 5*time.Second, func() bool {
		srtt, _ := p.path()
		return p.counters().Get("acks_in") > 0 && srtt > 0
	}) {
		if p.counters().Get("acks_in") == 0 {
			t.Fatal("no transport acks processed")
		}
		t.Fatal("no RTT sample taken")
	}
	// Packing must beat one-frame-per-datagram: 200 small frames fit in
	// far fewer 9000-byte datagrams.
	if out := p.counters().Get("datagrams_out"); out == 0 || out >= frames {
		t.Fatalf("%d datagrams for %d frames: none counted, or no packing", out, frames)
	}
}

func TestUDPOversizedFrameRidesAlone(t *testing.T) {
	a, sink := startUDPAcceptor(t, UDPConfig{})
	p := NewUDPPeer(func() (string, bool) { return a.Addr(), true },
		Config{MaxFrame: MaxUDPPayload}, UDPConfig{MaxDatagram: 2000}, NewCounters())
	defer p.CloseNow()

	big := bytes.Repeat([]byte{0xAB}, 30000) // far above the packing budget
	if !p.Enqueue(wire.NodeID(3), big) {
		t.Fatal("Enqueue rejected oversized frame")
	}
	if !waitFor(t, 5*time.Second, func() bool { return sink.n.Load() == 1 }) {
		t.Fatal("oversized frame not delivered")
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if !bytes.Equal(sink.frames[0].data, big) {
		t.Fatal("oversized frame corrupted in flight")
	}
}

func TestUDPLossAccounting(t *testing.T) {
	// Drop every 4th inbound data datagram at the receiver: the ack
	// channel must expose the gap as loss.
	var rxCount atomic.Int64
	ucfg := UDPConfig{RxDrop: func() bool { return rxCount.Add(1)%4 == 0 }}
	a, sink := startUDPAcceptor(t, ucfg)

	var reported atomic.Int64
	p := NewUDPPeer(func() (string, bool) { return a.Addr(), true },
		Config{MaxBatch: 1}, // one frame per datagram: make every drop visible
		UDPConfig{
			MaxDatagram: 64, // one small frame per datagram
			OnLoss:      func(rate float64) { reported.Add(1) },
		}, NewCounters())
	defer p.CloseNow()

	payload := bytes.Repeat([]byte{1}, 40)
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		p.Enqueue(wire.NodeID(1), payload)
		time.Sleep(500 * time.Microsecond)
		if p.counters().Get("datagrams_lost") > 10 && sink.n.Load() > 30 {
			break
		}
	}
	if p.counters().Get("datagrams_lost") == 0 {
		t.Fatal("injected loss never surfaced in datagrams_lost")
	}
	if sink.n.Load() == 0 {
		t.Fatal("nothing delivered despite partial loss")
	}
	if a.ctr.Snapshot().Get("rx_dropped") == 0 {
		t.Fatal("RxDrop shim never fired")
	}
	// ~25% sustained loss is far above the 1% report threshold.
	if loss := p.lossRate(); reported.Load() == 0 && loss > 0.05 {
		t.Fatalf("sustained loss (EWMA %.2f) never reported via OnLoss", loss)
	}
}

func TestUDPAcceptorRejectsGarbage(t *testing.T) {
	a, sink := startUDPAcceptor(t, UDPConfig{})
	c, err := net.Dial("udp", a.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	garbage := [][]byte{
		[]byte("x"),                      // short
		[]byte("not-a-datagram-at-all!"), // bad magic
		append(append([]byte{}, dgMagic[:]...), 0x7F, 0, 0, 0, 0, 1, 2, 3),                      // bad kind
		append(append([]byte{}, dgMagic[:]...), dgKindData, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF), // truncated frame header
	}
	for _, g := range garbage {
		if _, err := c.Write(g); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	if n := sink.n.Load(); n != 0 {
		t.Fatalf("garbage delivered %d frames", n)
	}
}

// BenchmarkUDPWriteSteadyState measures the per-frame send cost once the
// peer is warm: Enqueue through pack/stamp/sendmmsg with the freelist and
// datagram pool primed. Must be zero allocations per op (gated by
// benchguard).
func BenchmarkUDPWriteSteadyState(b *testing.B) {
	sink := func(wire.NodeID, []byte) bool { return true }
	a, err := listenUDP("127.0.0.1:0", 0, UDPConfig{}, sink, NewCounters())
	if err != nil {
		b.Fatalf("listenUDP: %v", err)
	}
	defer a.Close()
	p := NewUDPPeer(func() (string, bool) { return a.Addr(), true },
		Config{QueueDepth: 256}, UDPConfig{MaxWindow: 1 << 16}, NewCounters())
	defer p.CloseNow()
	payload := bytes.Repeat([]byte{0x5A}, 1200)
	// Warm until the pipeline is fully built: every queue slot's buffer
	// allocated and recycled through the freelist, dial done, window open.
	for i := 0; i < 1024; i++ {
		for !p.Enqueue(wire.NodeID(1), payload) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	for p.QueueLen() > 0 {
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !p.Enqueue(wire.NodeID(1), payload) {
			time.Sleep(50 * time.Microsecond) // queue full: writer catching up
		}
	}
	b.StopTimer()
}

// BenchmarkUDPBatchRoundTrip gates the batch syscalls themselves: one
// sendmmsg and one recvmmsg per op over loopback, the staging borrowed for
// the batch and given back as the acceptor's read loop does. The RawConn
// callbacks are bound once per sender and receiver and report through their
// fields, so no call allocates (bench_baseline.json pins 0 allocs/op).
func BenchmarkUDPBatchRoundTrip(b *testing.B) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Close()
	var bs batchSender
	bs.reset(1)
	br := newBatchReceiver(rx, 8)
	dgs := [][]byte{bytes.Repeat([]byte{0x5A}, 1200)}
	roundTrip := func() {
		if sent, err := bs.send(tx, dgs); sent != 1 || err != nil {
			b.Fatalf("send = %d, %v", sent, err)
		}
		if n, err := br.recv(); n != 1 || err != nil || br.lens[0] != len(dgs[0]) {
			b.Fatalf("recv = %d, %v", n, err)
		}
		br.release()
	}
	roundTrip() // binds the callbacks and puts a staging slab in the pool
	b.ReportAllocs()
	b.SetBytes(int64(len(dgs[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

func TestUDPStatsAggregation(t *testing.T) {
	// PeerSet over UDP links: the peers share one block, and their paths'
	// windows sum.
	a, sink := startUDPAcceptor(t, UDPConfig{})
	ctr := NewCounters()
	ps := NewPeerSet(func(wire.NodeID) Link {
		return NewUDPPeer(func() (string, bool) { return a.Addr(), true }, Config{}, UDPConfig{}, ctr)
	})
	defer ps.Close()
	for i := 1; i <= 3; i++ {
		p := ps.Get(wire.NodeID(i))
		if p == nil {
			t.Fatal("Get returned nil")
		}
		if !p.Enqueue(wire.NodeID(i), []byte(fmt.Sprintf("from-%d", i))) {
			t.Fatalf("Enqueue via peer %d failed", i)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return sink.n.Load() == 3 }) {
		t.Fatalf("delivered %d/3", sink.n.Load())
	}
	st := ctr.Snapshot()
	if st.Get("frames_out") != 3 || st.Get("datagrams_out") < 3 {
		t.Fatalf("counters %v, want 3 frames in ≥ 3 datagrams", st)
	}
	_, win := ps.UDPPaths()
	// Retiring a peer keeps its counts in the block; its window goes.
	ps.Drop(1)
	if _, after := ps.UDPPaths(); ctr.Snapshot().Get("datagrams_out") < st.Get("datagrams_out") || after >= win {
		t.Fatalf("across Drop: window %d → %d, counters %v → %v", win, after, st, ctr.Snapshot())
	}
}

// TestUDPRedialResyncsAckState pins the redial accounting as a pure state
// test: after a redial the acceptor keys the sender as a brand-new source
// whose cumulative count restarts at 0, so the sender must realign
// (ackSeq = nextSeq, ackCount = 0) or every subsequent recvDelta clamps to
// 0 and healthy acked traffic is charged as 100% loss.
func TestUDPRedialResyncsAckState(t *testing.T) {
	p := &UDPPeer{
		outbox:    outbox{ctr: NewCounters()},
		est:       newRTTEstimator(0),
		win:       newCubicWindow(16, 1024),
		ackSignal: make(chan struct{}, 1),
	}
	// Socket 1 lifetime: 100 datagrams stamped, 90 acked, receiver counted 95.
	p.nextSeq, p.ackSeq, p.ackCount = 100, 90, 95

	p.resetAckState()
	if p.ackSeq != 100 || p.ackCount != 0 {
		t.Fatalf("after reset: ackSeq=%d ackCount=%d, want 100/0", p.ackSeq, p.ackCount)
	}
	// The 10 in-flight datagrams on the dead socket are written off, once.
	if got := p.counters().Get("datagrams_lost"); got != 10 {
		t.Fatalf("reset wrote off %d datagrams, want 10", got)
	}

	// Socket 2: stamp 10 datagrams (seqs 100..109) and ack them all from the
	// fresh source (count restarts at 10, not 105). No loss may be charged.
	dgs := make([][]byte, 10)
	for i := range dgs {
		dgs[i] = make([]byte, dgHdrLen)
	}
	winBefore := p.win.Window()
	p.stampSeqs(dgs)
	p.handleAck(110, 10)
	if got := p.counters().Get("datagrams_lost"); got != 10 {
		t.Fatalf("healthy post-redial ack charged loss: datagrams_lost=%d, want 10", got)
	}
	if p.lossEWMA != 0 {
		t.Fatalf("healthy post-redial ack moved lossEWMA to %f", p.lossEWMA)
	}
	if p.win.Window() < winBefore {
		t.Fatalf("window shrank on a fully-acked post-redial flight: %d -> %d",
			winBefore, p.win.Window())
	}
	if p.ackSeq != 110 || p.ackCount != 10 {
		t.Fatalf("post-ack state: ackSeq=%d ackCount=%d, want 110/10", p.ackSeq, p.ackCount)
	}
}

// TestUDPRedialAgainstLiveAcceptor forces a sender-side redial (the socket
// is yanked out from under the writer) while the acceptor stays up: the new
// ephemeral port lands as a new rxSource whose count restarts at 0, and the
// sender must resync instead of charging every post-redial ack as loss,
// pinning the window at minimum, and escalating a healthy path.
func TestUDPRedialAgainstLiveAcceptor(t *testing.T) {
	a, sink := startUDPAcceptor(t, UDPConfig{})
	p := NewUDPPeer(func() (string, bool) { return a.Addr(), true },
		Config{BackoffMin: time.Millisecond}, UDPConfig{}, NewCounters())
	defer p.CloseNow()

	send := func(n int, tag byte) {
		for i := 0; i < n; i++ {
			for !p.Enqueue(wire.NodeID(1), []byte{tag, byte(i)}) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(200 * time.Microsecond) // spread over several acked batches
		}
	}
	send(50, 'a')
	if !waitFor(t, 5*time.Second, func() bool { return sink.n.Load() == 50 }) {
		t.Fatalf("pre-redial: delivered %d/50", sink.n.Load())
	}

	// Yank the socket: the writer's next send fails, drops the conn, and
	// redials on a new ephemeral port against the still-live acceptor.
	p.dropConn()
	send(100, 'b')
	if !waitFor(t, 5*time.Second, func() bool { return sink.n.Load() >= 140 }) {
		t.Fatalf("post-redial: delivered %d/150", sink.n.Load())
	}
	if !waitFor(t, 2*time.Second, func() bool { return p.lossRate() < 0.1 }) {
		_, win := p.path()
		t.Fatalf("post-redial acks charged as loss: loss rate %.2f, window %d, counters %v",
			p.lossRate(), win, p.counters())
	}
	if st := p.counters(); st.Get("reconnects") == 0 && st.Get("dials") < 2 {
		t.Fatalf("redial never happened: %v", st)
	}
}

func TestUDPBatchReceiverMultiSource(t *testing.T) {
	// Several source sockets interleaving into one acceptor: per-source
	// ack state must keep them separate (each source sees its own seq
	// space echoed, so no cross-source loss is invented).
	a, sink := startUDPAcceptor(t, UDPConfig{})
	const peers = 4
	const per = 50
	var ps []*UDPPeer
	for i := 0; i < peers; i++ {
		p := NewUDPPeer(func() (string, bool) { return a.Addr(), true }, Config{}, UDPConfig{}, NewCounters())
		ps = append(ps, p)
		defer p.CloseNow()
	}
	rng := rand.New(rand.NewSource(42))
	for j := 0; j < per; j++ {
		for i, p := range ps {
			for !p.Enqueue(wire.NodeID(i+1), []byte{byte(i), byte(j)}) {
				time.Sleep(time.Millisecond)
			}
			if rng.Intn(4) == 0 {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return sink.n.Load() == peers*per }) {
		t.Fatalf("delivered %d/%d", sink.n.Load(), peers*per)
	}
	for i, p := range ps {
		st := p.counters()
		if st.Get("datagrams_lost") != 0 {
			t.Fatalf("peer %d: phantom loss %d on a clean loopback", i, st.Get("datagrams_lost"))
		}
		if st.Get("acks_in") == 0 {
			t.Fatalf("peer %d: no acks", i)
		}
	}
}

// On a clean loopback path at steady state the sender asks for an echo
// every few datagrams, not on each one: the acceptor's acks stay under a
// quarter of the datagrams it takes, and the sparser echo still accounts
// every datagram delivered (no loss charged). The acceptor reads one
// datagram per recvmmsg, so batching cannot coalesce acks the sender did
// not ask to skip; one frame per datagram, and a window the receive buffer
// holds, so the only loss there could be is the ack math's.
func TestUDPAcksOnRequest(t *testing.T) {
	a, sink := startUDPAcceptor(t, UDPConfig{RecvBatch: 1})
	p := NewUDPPeer(func() (string, bool) { return a.Addr(), true },
		Config{QueueDepth: 4096}, UDPConfig{MaxDatagram: 64, MaxWindow: 64}, NewCounters())
	defer p.CloseNow()

	const frames = 4000
	payload := bytes.Repeat([]byte{7}, 40)
	for i := 0; i < frames; i++ {
		for !p.Enqueue(wire.NodeID(1), payload) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if !waitFor(t, 10*time.Second, func() bool { return sink.n.Load() == frames }) {
		t.Fatalf("delivered %d/%d frames", sink.n.Load(), frames)
	}
	rx := a.ctr.Snapshot()
	in, acks := rx.Get("datagrams_in"), rx.Get("acks_out")
	if in < frames {
		t.Fatalf("datagrams_in = %d for %d one-frame datagrams", in, frames)
	}
	if acks == 0 || acks*4 > in {
		t.Fatalf("acks_out = %d for %d datagrams, want at most a quarter", acks, in)
	}
	if lost := p.counters().Get("datagrams_lost"); lost != 0 {
		t.Fatalf("datagrams_lost = %d on a clean loopback: %v", lost, p.counters())
	}
	t.Logf("%d datagrams, %d acks (%.3f per datagram)", in, acks, float64(acks)/float64(in))
}

// A sender that goes quiet with fewer than k datagrams out — not enough to
// earn a request, so nothing will answer them — and stays quiet past the
// RTO must not be timed out when it speaks again: the burst that fills the
// window brings its own requests, and their echoes cover the quiet ones.
// No RTO (the window never collapses), no loss, and the whole burst
// arrives.
func TestUDPIdleThenBurst(t *testing.T) {
	a, sink := startUDPAcceptor(t, UDPConfig{})
	p := NewUDPPeer(func() (string, bool) { return a.Addr(), true },
		Config{}, UDPConfig{MaxDatagram: 64}, NewCounters()) // one frame per datagram
	defer p.CloseNow()

	payload := bytes.Repeat([]byte{9}, 40)
	var sent int64
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for !p.Enqueue(wire.NodeID(1), payload) {
				time.Sleep(100 * time.Microsecond)
			}
		}
		sent += int64(n)
		if !waitFor(t, 5*time.Second, func() bool { return sink.n.Load() == sent }) {
			t.Fatalf("delivered %d/%d", sink.n.Load(), sent)
		}
	}
	send(64) // an RTT sample, and an RTO near minRTO
	if !waitFor(t, 5*time.Second, func() bool { srtt, _ := p.path(); return srtt > 0 }) {
		t.Fatal("no RTT sample after 64 datagrams")
	}
	_, win := p.path()
	for i := 0; i < 2; i++ { // fewer than k = clamp(win/4, 1, 8)
		send(1)
	}
	p.ackMu.Lock()
	rto := p.est.RTO()
	p.ackMu.Unlock()
	time.Sleep(2*rto + 10*time.Millisecond)
	t.Logf("quiet for %v past an RTO of %v, window %d", rto+10*time.Millisecond, rto, win)

	send(4 * win)
	if lost := p.counters().Get("datagrams_lost"); lost != 0 {
		t.Fatalf("datagrams_lost = %d: an RTO wrote off delivered datagrams", lost)
	}
	if _, after := p.path(); after < win {
		t.Fatalf("window %d → %d across the burst: it collapsed on a timeout", win, after)
	}
}
