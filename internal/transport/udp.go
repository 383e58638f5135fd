package transport

import (
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
)

// This file is the datagram half of the peer layer: UDPPeer (sender) and
// UDPAcceptor (receiver), sharing the outbox core with the TCP Peer. The
// wire unit is a datagram carrying whole frames — a frame is never split
// across datagrams, so a lost datagram costs exactly the frames packed into
// it and nothing has to be reassembled:
//
//	datagram  = magic(4) ‖ kind(1) ‖ seq(4) ‖ frame*     (kind = data, maybe | ack-request)
//	frame     = length(4) ‖ sender(4) ‖ payload           (same as TCP)
//	ack       = magic(4) ‖ kind(1) ‖ seq(4) ‖ count(8)    (kind = ack)
//
// The ack is the transport's only feedback and it carries no payload
// semantics: after each receive batch the acceptor echoes, to each source
// socket whose batch held a datagram with the ack-request bit set, one past
// the highest data seq it has seen and its cumulative datagram count. The
// sender derives everything from that pair — RTT samples (seq echo vs. the
// outstanding probe's send time, Karn-filtered), loss (seq advance minus
// count advance), and window occupancy (seq advance) — and requests an
// echo only as often as pacing needs one: every k unrequested datagrams in
// flight (k = window/4, clamped to [1, 8]), the RTT probe riding on one of
// those requests. A shut window thus always has a requested datagram in
// flight, and an RTO means real silence. Lost datagrams are NEVER retransmitted; the coding layer's
// redundancy and splice repair own reliability, and the transport's job is
// only to pace itself (CUBIC window, RTO backoff) and to report persistent
// loss upward.
const (
	dgHdrLen   = 9  // magic(4) + kind(1) + seq(4)
	udpAckLen  = 17 // magic(4) + kind(1) + seq(4) + count(8)
	dgKindData = 0x01
	dgKindAck  = 0x02
	// dgAckReq, or-ed into a data datagram's kind, asks the acceptor to
	// echo an ack after the receive batch that holds it.
	dgAckReq = 0x80

	// maxAckSpacing caps k, the unrequested datagrams a sender lets into
	// flight between two ack requests.
	maxAckSpacing = 8

	// initialWindow is the congestion window a peer opens with, in
	// datagrams in flight.
	initialWindow = 16

	// MaxUDPPayload is the largest UDP payload the sockets API accepts
	// (65535 minus IP and UDP headers); frames above it cannot ride this
	// transport at all and are dropped at Enqueue.
	MaxUDPPayload = 65507
)

var dgMagic = [4]byte{'i', 'S', 'U', '1'}

// UDPConfig tunes the datagram peer and acceptor. The zero value is usable.
type UDPConfig struct {
	// MaxDatagram is the packing budget: the writer packs queued frames
	// into datagrams up to this size (default 9000, a jumbo-frame-ish
	// sweet spot for ~1500-byte slices). A single frame larger than the
	// budget still travels whole, in its own oversized datagram, up to
	// MaxUDPPayload.
	MaxDatagram int
	// RecvBatch is how many datagrams one recvmmsg call can drain
	// (default 8). Each vector holds a MaxUDPPayload-sized staging buffer,
	// borrowed for the batch and returned before the socket sleeps.
	RecvBatch int
	// MaxWindow caps the CUBIC congestion window, in datagrams in flight
	// (default 1024); a peer opens it at 16.
	MaxWindow int
	// MaxRTO caps the RTO (default 10s); its floor is 20ms.
	MaxRTO time.Duration
	// RxDrop, when set, is consulted once per inbound datagram (data and
	// ack alike) and drops it when true: a socket-level netem-style loss
	// shim for experiments. Dropped datagrams are never counted received,
	// so the ack channel exposes them to the sender as wire loss.
	RxDrop func() bool
	// OnLoss, when set, is called (rate-limited, off the ack lock) with
	// the smoothed loss rate toward this peer whenever it is materially
	// non-zero; the overlay layer fans it into per-destination loss
	// watchers that escalate persistent loss to splice repair.
	OnLoss func(rate float64)
	// Clock drives the acceptor's idle-source eviction timeline (default
	// the wall clock). Virtual-time harnesses inject their simnet clock so
	// source eviction follows the simulated timeline instead of wall time.
	Clock simnet.Clock
}

func (c *UDPConfig) fillDefaults() {
	if c.MaxDatagram <= 0 {
		c.MaxDatagram = 9000
	}
	if c.MaxDatagram > MaxUDPPayload {
		c.MaxDatagram = MaxUDPPayload
	}
	if c.RecvBatch <= 0 {
		c.RecvBatch = 8
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 1024
	}
	if c.Clock == nil {
		c.Clock = simnet.Wall
	}
}

// UDPPeerStats is the benchmark's view of a datagram transport's counters
// and live paths (PeerSet.UDPPaths).
type UDPPeerStats struct {
	DatagramsOut, DatagramsLost int64
	SRTT                        time.Duration
	Window                      int
}

// UDPPeer is one remote overlay host over a connected UDP socket: the same
// bounded queue, freelist, writer loop and shutdown lifecycle as the TCP
// Peer (the shared outbox), but the flush packs frames into datagrams,
// sends them with sendmmsg, and paces itself with a CUBIC window over the
// ack/echo channel instead of trusting a stream's backpressure.
type UDPPeer struct {
	outbox
	ucfg UDPConfig

	// Writer-goroutine-only: the flush scratch, and the frames and datagrams
	// sent, whose ratio is published as packing for SendDelay.
	dgs             [][]byte
	dgPool          [][]byte
	bs              batchSender
	txFrames, txDgs int64
	packing         atomic.Int64

	// Congestion state, guarded by ackMu (shared by the writer stamping
	// seqs and the ack-reader goroutine).
	ackMu          sync.Mutex
	est            rttEstimator
	win            cubicWindow
	nextSeq        uint32 // next datagram seq to stamp
	ackSeq         uint32 // first seq not yet acked: [ackSeq, nextSeq) is in flight
	reqEnd         uint32 // one past the last datagram that requested an ack
	ackCount       uint64 // receiver's cumulative datagram count at last ack
	probeSeq       uint32
	probeAt        time.Time
	probeOut       bool
	lossEWMA       float64
	lastLossReport time.Time

	ackSignal chan struct{} // capacity 1: the writer's window-open wakeup
}

// NewUDPPeer creates a datagram peer and starts its writer. resolve is
// called at (re)dial time on the writer goroutine, and counters go to ctr,
// exactly as for the TCP peer.
func NewUDPPeer(resolve func() (string, bool), cfg Config, ucfg UDPConfig, ctr *metrics.ShardedCounter) *UDPPeer {
	cfg.fillDefaults()
	ucfg.fillDefaults()
	if maxPayload := MaxUDPPayload - dgHdrLen - HeaderLen; cfg.MaxFrame > maxPayload {
		cfg.MaxFrame = maxPayload
	}
	p := &UDPPeer{
		outbox:    newOutbox(cfg, resolve, ctr),
		ucfg:      ucfg,
		est:       newRTTEstimator(ucfg.MaxRTO),
		win:       newCubicWindow(initialWindow, float64(ucfg.MaxWindow)),
		ackSignal: make(chan struct{}, 1),
	}
	go p.run(p)
	return p
}

// path reads the peer's smoothed RTT (zero before the first sample) and
// congestion window.
func (p *UDPPeer) path() (time.Duration, int) {
	p.ackMu.Lock()
	defer p.ackMu.Unlock()
	return p.est.SRTT(), p.win.Window()
}

// SendDelay estimates how long a congestion-aware sender should hold its
// next burst of n bytes toward this peer: zero while the window has room,
// otherwise roughly the fraction of an RTT it will take the window to open
// by the current overshoot. It is advisory pacing for the source's round
// loop — the writer gates hard on the window regardless.
func (p *UDPPeer) SendDelay(bytes int) time.Duration {
	p.ackMu.Lock()
	win := p.win.Window()
	inflight := int(int32(p.nextSeq - p.ackSeq))
	srtt := p.est.SRTT()
	p.ackMu.Unlock()
	// The queue holds frames but the window counts datagrams, and the
	// writer packs several frames per datagram; scale the queue down by
	// the measured packing factor so the overshoot stays in one unit.
	queued := p.QueueLen()
	if per := p.packing.Load(); queued > 0 && per > 1 {
		queued = int((int64(queued) + per - 1) / per)
	}
	over := inflight + queued - win
	if over <= 0 {
		return 0
	}
	if srtt <= 0 {
		srtt = 5 * time.Millisecond
	}
	d := time.Duration(float64(srtt) * float64(over) / float64(win))
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// pack copies the batch's frames into datagram buffers: whole frames only,
// greedily filling each datagram up to the MaxDatagram budget. A frame
// that alone exceeds the budget gets its own oversized datagram (Enqueue
// already guarantees it fits MaxUDPPayload). Each frame's 8-byte wire
// header, from the envelope's arena, is laid down here in front of its
// payload — packing is an owned burst's single copy, after which
// recycleBatch releases the backing buffer. The 9-byte datagram header is
// laid down with a zero seq; stamping happens at send time, after the
// window gate, so seqs stay contiguous with what actually hits the wire.
func (p *UDPPeer) pack(batch []*envelope, dgs [][]byte) [][]byte {
	budget := p.ucfg.MaxDatagram
	var cur []byte
	for _, e := range batch {
		for i, payload := range e.bufs {
			hdr := e.arena[i*HeaderLen : (i+1)*HeaderLen]
			if cur != nil && len(cur)+len(hdr)+len(payload) > budget {
				dgs = append(dgs, cur)
				cur = nil
			}
			if cur == nil {
				if n := len(p.dgPool); n > 0 {
					cur = p.dgPool[n-1][:0]
					p.dgPool = p.dgPool[:n-1]
				} else {
					cur = make([]byte, 0, budget)
				}
				cur = append(cur, dgMagic[:]...)
				cur = append(cur, dgKindData, 0, 0, 0, 0)
			}
			cur = append(cur, hdr...)
			cur = append(cur, payload...)
		}
	}
	if cur != nil {
		dgs = append(dgs, cur)
	}
	return dgs
}

// flush packs the batch into datagrams — after which the batch is done
// with: owned buffers are released before any window wait — and sends them.
func (p *UDPPeer) flush(c net.Conn, batch []*envelope) {
	p.dgs = p.pack(batch, p.dgs[:0])
	p.recycleBatch(batch)
	p.send(c.(*net.UDPConn), p.dgs)
	p.dgPool = append(p.dgPool, p.dgs...)
}

// send puts the packed datagrams on the wire, gating on the congestion
// window: at most cwnd − inflight datagrams go out per sendmmsg, and when
// the window is shut the writer parks until an ack opens it or the RTO
// expires (which backs the RTO off, collapses the window, and writes the
// flight off as lost — never retransmitted).
func (p *UDPPeer) send(c *net.UDPConn, dgs [][]byte) {
	i := 0
	stamped := 0 // dgs[i:stamped] carry wire seqs but have not been sent yet
	for i < len(dgs) {
		if stamped == i {
			room := p.windowRoom()
			if room <= 0 {
				if !p.awaitWindow() {
					p.count(cDropped, p.countFrames(dgs[i:]))
					return
				}
				continue
			}
			n := len(dgs) - i
			if n > room {
				n = room
			}
			p.stampSeqs(dgs[i : i+n])
			stamped = i + n
		}
		// A short sendmmsg (full socket buffer) leaves a stamped tail: retry
		// it with the seqs it already carries. Re-stamping would punch a
		// permanent hole in the seq space, and the ack math would charge the
		// same datagrams as lost a second time for purely local backpressure.
		sent, err := p.bs.send(c, dgs[i:stamped])
		if sent > 0 {
			var frames, bytes int64
			for _, dg := range dgs[i : i+sent] {
				frames += framesIn(dg)
				bytes += int64(len(dg) - dgHdrLen)
			}
			p.count(cFlushes, 1)
			p.count(cDatagramsOut, int64(sent))
			p.count(cFramesOut, frames)
			p.count(cBytesOut, bytes)
			p.txFrames, p.txDgs = p.txFrames+frames, p.txDgs+int64(sent)
			p.packing.Store(p.txFrames / p.txDgs)
		}
		i += sent
		if err != nil {
			p.count(cSendFailures, 1)
			if unsent := stamped - i; unsent > 0 {
				// Stamped but never on the wire, and the redial will reset
				// the ack state past them: account them here, once.
				p.count(cDatagramsLost, int64(unsent))
			}
			p.count(cDropped, p.countFrames(dgs[i:]))
			p.dropConn()
			// A connected UDP socket fails sends with ECONNREFUSED while
			// the remote listener is down; back off like a failed dial so
			// a dead peer is not hammered at line rate.
			p.sleepBackoff()
			return
		}
	}
}

func (p *UDPPeer) countFrames(dgs [][]byte) int64 {
	var n int64
	for _, dg := range dgs {
		n += framesIn(dg)
	}
	return n
}

// framesIn counts the frames packed in one datagram buffer.
func framesIn(dg []byte) int64 {
	var n int64
	rest := dg[dgHdrLen:]
	for len(rest) >= HeaderLen {
		size := int(binary.BigEndian.Uint32(rest))
		if HeaderLen+size > len(rest) {
			break
		}
		rest = rest[HeaderLen+size:]
		n++
	}
	return n
}

func (p *UDPPeer) windowRoom() int {
	p.ackMu.Lock()
	room := p.win.Window() - int(int32(p.nextSeq-p.ackSeq))
	p.ackMu.Unlock()
	return room
}

// stampSeqs assigns contiguous seqs to the datagrams about to be sent,
// sets the ack-request bit on every k-th unrequested datagram in flight
// (k = window/4, clamped to [1, 8]), and makes a requesting datagram the
// RTT probe when none is out — one unacked probe at a time, re-armed (with
// a Karn backoff, since the old probe is now ambiguous) if the outstanding
// one has been quiet past the RTO. A shut window always holds a requested
// datagram: fewer than k ≤ window/4 of its flight go unrequested, and a
// loss shrinks it only to 0.7 of itself.
func (p *UDPPeer) stampSeqs(dgs [][]byte) {
	now := time.Now()
	p.ackMu.Lock()
	if p.probeOut && now.Sub(p.probeAt) > p.est.RTO() {
		p.est.Backoff()
		p.probeOut = false
	}
	k := min(max(p.win.Window()/4, 1), maxAckSpacing)
	for _, dg := range dgs {
		seq := p.nextSeq
		p.nextSeq++
		// Unrequested datagrams in flight: those after the last request,
		// or after the last ack if it covered that request.
		from := p.reqEnd
		if int32(p.ackSeq-from) > 0 {
			from = p.ackSeq
		}
		kind := byte(dgKindData)
		if int(int32(p.nextSeq-from)) >= k {
			kind |= dgAckReq
			p.reqEnd = p.nextSeq
			if !p.probeOut {
				p.probeOut = true
				p.probeSeq = seq
				p.probeAt = now
			}
		}
		dg[4] = kind
		binary.BigEndian.PutUint32(dg[5:9], seq)
	}
	p.ackMu.Unlock()
}

// awaitWindow parks the writer until an ack opens the window, the RTO
// expires (timeout handling: Karn backoff, window collapse, flight written
// off), or shutdown interrupts the wait. Returns false when the writer
// must stop sending (killed, or drain deadline passed).
func (p *UDPPeer) awaitWindow() bool {
	p.ackMu.Lock()
	rto := p.est.RTO()
	p.ackMu.Unlock()
	var closedCh <-chan struct{}
	if p.isClosed() {
		if rem := time.Until(p.armDrain()); rem <= 0 {
			return false
		} else if rem < rto {
			rto = rem
		}
	} else {
		// Wake when Close lands mid-wait so the drain clamp above takes
		// over on the next pass (nil channel if already closed: selecting
		// on a closed channel would busy-spin).
		closedCh = p.closed
	}
	t := time.NewTimer(rto)
	defer t.Stop()
	select {
	case <-p.ackSignal:
		return true
	case <-closedCh:
		return true
	case <-p.killed:
		return false
	case <-t.C:
		p.onRTO()
		return true
	}
}

// onRTO handles a retransmission-timeout expiry without the retransmission:
// the in-flight datagrams are written off as lost (redundancy upstream owns
// recovery), the window collapses, the RTO backs off per Karn, and the
// outstanding probe is invalidated so no sample is taken from the ambiguous
// exchange.
func (p *UDPPeer) onRTO() {
	now := time.Now()
	p.ackMu.Lock()
	if inflight := int32(p.nextSeq - p.ackSeq); inflight > 0 {
		p.count(cDatagramsLost, int64(inflight))
		p.ackSeq = p.nextSeq
	}
	p.est.Backoff()
	p.win.OnTimeout(now)
	p.probeOut = false
	p.ackMu.Unlock()
}

// resetAckState realigns the congestion accounting with a fresh socket. A
// redial binds a new ephemeral port, so the acceptor keys the sender as a
// brand-new rxSource whose cumulative count restarts at 0; if the sender
// kept the old ackCount, every future recvDelta would clamp to 0 and all
// acked datagrams would be charged as loss until the new socket outlived
// the old one's lifetime count. Datagrams still in flight on the dead
// socket can never be acked by the new source, so they are written off as
// lost (a counter only — no CUBIC loss signal for a local socket swap) and
// the outstanding probe is invalidated per Karn.
func (p *UDPPeer) resetAckState() {
	p.ackMu.Lock()
	if inflight := int32(p.nextSeq - p.ackSeq); inflight > 0 {
		p.count(cDatagramsLost, int64(inflight))
	}
	p.ackSeq = p.nextSeq
	p.ackCount = 0
	p.probeOut = false
	p.ackMu.Unlock()
}

// dial opens the connected socket. UDP "dialing" is address resolution
// plus socket setup — it only fails when the peer's address is unusable, so
// the outbox's backoff loop is really a resolver retry loop. A fresh socket
// gets fresh ack state and its own ack-reader goroutine, which exits when
// the socket is closed.
func (p *UDPPeer) dial(addr string) (net.Conn, error) {
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		return nil, err
	}
	p.bs.reset(p.cfg.MaxBatch)
	p.resetAckState()
	go p.readAcks(c)
	return c, nil
}

// readAcks consumes transport acks on one socket until it is closed or
// replaced. Acks are tiny and rare (one per receive batch that held a
// request, per source), so a plain read loop is enough here — the batching
// lives on the data path.
func (p *UDPPeer) readAcks(c *net.UDPConn) {
	buf := make([]byte, 64)
	for {
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		if p.ucfg.RxDrop != nil && p.ucfg.RxDrop() {
			continue
		}
		if seq, count, ok := parseAck(buf[:n]); ok {
			p.handleAck(seq, count)
		}
	}
}

// parseAck reads an ack datagram: ok=false for anything else.
func parseAck(b []byte) (seq uint32, count uint64, ok bool) {
	if len(b) < udpAckLen || [4]byte(b[:4]) != dgMagic || b[4] != dgKindAck {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(b[5:9]), binary.BigEndian.Uint64(b[9:17]), true
}

// handleAck folds one ack into the congestion state. seq advance tells how
// many datagram serials the receiver has moved past; count advance tells
// how many actually arrived; the difference is wire loss, charged to the
// CUBIC window at most once per RTT. The seq echo against the outstanding
// probe yields the RTT sample (Karn: the probe was invalidated if any
// timeout made it ambiguous). seq is the first seq the receiver has not
// seen, so an ack past nextSeq claims datagrams never sent: taken, it would
// open the window on them and drive the flight negative, so it is ignored
// and counted (acks_future).
func (p *UDPPeer) handleAck(seq uint32, count uint64) {
	now := time.Now()
	p.ackMu.Lock()
	if int32(seq-p.nextSeq) > 0 {
		p.ackMu.Unlock()
		p.count(cAcksFuture, 1)
		return
	}
	p.count(cAcksIn, 1)
	newly := int64(int32(seq - p.ackSeq))
	if newly <= 0 {
		if d := int64(count - p.ackCount); d > 0 {
			p.ackCount = count // stale seq but fresher count: absorb
		}
		p.ackMu.Unlock()
		p.signalWindow()
		return
	}
	recvDelta := int64(count - p.ackCount)
	if recvDelta < 0 {
		recvDelta = 0
	}
	if recvDelta > newly {
		recvDelta = newly
	}
	lost := newly - recvDelta
	p.ackSeq = seq
	if int64(count-p.ackCount) > 0 {
		p.ackCount = count
	}
	if p.probeOut && int32(seq-p.probeSeq) > 0 {
		p.est.Observe(now.Sub(p.probeAt))
		p.probeOut = false
	}
	guard := p.est.SRTT()
	if guard <= 0 {
		guard = 20 * time.Millisecond
	}
	if lost > 0 {
		p.count(cDatagramsLost, lost)
		p.win.OnLoss(now, guard)
	}
	if acked := newly - lost; acked > 0 {
		p.win.OnAck(now, int(acked))
	}
	p.lossEWMA = 0.8*p.lossEWMA + 0.2*float64(lost)/float64(newly)
	report := 0.0
	if cb := p.ucfg.OnLoss; cb != nil && p.lossEWMA > 0.01 &&
		now.Sub(p.lastLossReport) >= time.Second {
		p.lastLossReport = now
		report = p.lossEWMA
	}
	p.ackMu.Unlock()
	p.signalWindow()
	if report > 0 {
		p.ucfg.OnLoss(report)
	}
}

func (p *UDPPeer) signalWindow() {
	select {
	case p.ackSignal <- struct{}{}:
	default:
	}
}

// UDPAcceptor owns one listening UDP socket: the batched read loop, frame
// parsing, and the ack/echo bookkeeping per source socket. The recvmmsg
// staging buffers are borrowed per batch and given back once it is parsed
// (or the socket runs dry) — they are STAGING ONLY, never handed out. Each
// datagram's body is copied once into a buffer of its size, and its frames
// are views into that copy the handlers own outright (buffer-ownership
// rule 2): a kept view pins its datagram, no more.
type UDPAcceptor struct {
	conn     *net.UDPConn
	maxFrame int
	deliver  Deliver
	ucfg     UDPConfig

	closeOnce sync.Once
	wg        sync.WaitGroup

	ctr *metrics.ShardedCounter // the transport's block
	key uint64
}

// rxSource is the acceptor's per-source-socket ack state.
type rxSource struct {
	count    uint64 // datagrams received (post-shim) from this source
	high     uint32 // highest data seq seen
	started  bool
	ackDue   bool      // this batch held a datagram requesting an ack
	lastSeen time.Time // last batch this source appeared in (eviction clock)
}

// Idle sources are evicted so the srcs map stays bounded: every sender
// redial lands on a new ephemeral port and would otherwise strand its old
// entry forever, and any 9 bytes of valid magic is enough to mint one — a
// slow leak on long-running listeners. The sweep runs at most once per
// srcSweepEvery, piggybacked on the read loop, and an evicted source that
// comes back simply restarts as a fresh rxSource (the sender's redial
// resetAckState covers the only way a live source changes ports).
const (
	srcIdleTimeout = 2 * time.Minute
	srcSweepEvery  = 30 * time.Second
)

// NewUDPAcceptor wraps an already-bound UDP socket without reading yet;
// Start launches the read loop (the same two-phase shape as the TCP
// Acceptor, closing the attach race). It counts into its transport's ctr.
func NewUDPAcceptor(conn *net.UDPConn, maxFrame int, ucfg UDPConfig, deliver Deliver, ctr *metrics.ShardedCounter) *UDPAcceptor {
	ucfg.fillDefaults()
	if maxFrame <= 0 || maxFrame > MaxUDPPayload {
		maxFrame = MaxUDPPayload
	}
	return &UDPAcceptor{
		conn:     conn,
		maxFrame: maxFrame,
		ucfg:     ucfg,
		deliver:  deliver,
		ctr:      ctr,
		key:      stripeKeys.Add(1),
	}
}

// Start launches the read loop. Call exactly once.
func (a *UDPAcceptor) Start() {
	a.wg.Add(1)
	go a.readLoop()
}

// Addr returns the bound address.
func (a *UDPAcceptor) Addr() string { return a.conn.LocalAddr().String() }

// Close stops the socket and waits for the read loop to exit.
func (a *UDPAcceptor) Close() {
	a.closeOnce.Do(func() { a.conn.Close() })
	a.wg.Wait()
}

// recvSlabs is the process-wide store of receive staging slabs
// (RecvBatch×MaxUDPPayload each). Receivers borrow one per batch and give
// it back as soon as the batch is copied out or the socket runs dry, so the
// slabs in use track the batches in hand, not the sockets open. It pools
// the *[]byte handles themselves: a slab goes back on every batch, and
// boxing a fresh handle per Put would allocate each time.
var recvSlabs sync.Pool

func getRecvSlab(n int) *[]byte {
	if s, _ := recvSlabs.Get().(*[]byte); s != nil && cap(*s) >= n {
		*s = (*s)[:n]
		return s
	}
	s := make([]byte, n)
	return &s
}

func putRecvSlab(s *[]byte) { recvSlabs.Put(s) }

func (a *UDPAcceptor) readLoop() {
	defer a.wg.Done()
	br := newBatchReceiver(a.conn, a.ucfg.RecvBatch)
	srcs := make(map[netip.AddrPort]*rxSource)
	seen := make([]netip.AddrPort, 0, a.ucfg.RecvBatch)
	var ackBuf [udpAckLen]byte
	copy(ackBuf[:4], dgMagic[:])
	ackBuf[4] = dgKindAck
	// Eviction timestamps come from the injected clock (wall by default) so
	// virtual-time harnesses can age sources without waiting real minutes.
	clk := a.ucfg.Clock
	nextSweep := clk.Now().Add(srcSweepEvery)
	for {
		n, err := br.recv()
		seen = seen[:0]
		for i := 0; i < n; i++ {
			a.handleDatagram(br.bufs[i][:br.lens[i]], br.addrs[i], srcs, &seen)
		}
		br.release() // every frame is copied out: the staging goes back now
		// Echo one ack per batch to each source socket that asked for one:
		// one past the highest seq seen plus cumulative count, from which
		// the sender reconstructs delivery, loss, and RTT. Coalescing to
		// the batch keeps the ack rate at most one per recvmmsg per source,
		// and the sender asks only every few datagrams.
		now := clk.Now()
		for _, ap := range seen {
			src := srcs[ap]
			src.lastSeen = now
			if !src.ackDue {
				continue
			}
			src.ackDue = false
			binary.BigEndian.PutUint32(ackBuf[5:9], src.high+1)
			binary.BigEndian.PutUint64(ackBuf[9:17], src.count)
			if _, err := a.conn.WriteToUDPAddrPort(ackBuf[:], ap); err == nil {
				a.ctr.Add(a.key, cAcksOut, 1)
			}
		}
		if now.After(nextSweep) {
			nextSweep = now.Add(srcSweepEvery)
			for ap, src := range srcs {
				if now.Sub(src.lastSeen) > srcIdleTimeout {
					delete(srcs, ap)
					a.ctr.Add(a.key, cSourcesEvicted, 1)
				}
			}
		}
		if err != nil {
			return
		}
	}
}

func (a *UDPAcceptor) handleDatagram(b []byte, from netip.AddrPort,
	srcs map[netip.AddrPort]*rxSource, seen *[]netip.AddrPort) {
	if len(b) < dgHdrLen || [4]byte(b[:4]) != dgMagic || b[4]&^dgAckReq != dgKindData {
		return
	}
	if a.ucfg.RxDrop != nil && a.ucfg.RxDrop() {
		// Emulated wire loss: the datagram never existed as far as the ack
		// state is concerned, so the sender sees it as a seq/count gap.
		a.ctr.Add(a.key, cRxDropped, 1)
		return
	}
	src := srcs[from]
	if src == nil {
		src = &rxSource{}
		srcs[from] = src
		a.ctr.Add(a.key, cSourcesAdded, 1)
	}
	fresh := true
	for _, ap := range *seen {
		if ap == from {
			fresh = false
			break
		}
	}
	if fresh {
		*seen = append(*seen, from)
	}
	src.count++
	src.ackDue = src.ackDue || b[4]&dgAckReq != 0
	seq := binary.BigEndian.Uint32(b[5:9])
	if !src.started || int32(seq-src.high) > 0 {
		src.high = seq
		src.started = true
	}
	a.ctr.Add(a.key, cDatagramsIn, 1)
	// Copy the body out of the staging (reused next batch; delivered views
	// live forever), once per datagram.
	rest := make([]byte, len(b)-dgHdrLen)
	copy(rest, b[dgHdrLen:])
	for len(rest) >= HeaderLen {
		size, sender, ok := parseHeader(rest, a.maxFrame)
		if !ok || HeaderLen+size > len(rest) {
			return // malformed tail: drop the rest of the datagram
		}
		payload := rest[HeaderLen : HeaderLen+size : HeaderLen+size]
		rest = rest[HeaderLen+size:]
		a.ctr.Add(a.key, cFramesIn, 1)
		a.ctr.Add(a.key, cBytesIn, int64(size))
		if !a.deliver(sender, payload) {
			return
		}
	}
}
