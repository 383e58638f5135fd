package transport

import (
	"net"
	"time"

	"infoslicing/internal/metrics"
)

// Peer is one remote overlay host: a single TCP connection carrying frames
// from every local node toward it, exactly the paper's one-daemon-per-host
// deployment shape (each frame names its sender in the header). It owns a
// bounded outbound queue, a freelist of frame buffers, and a writer
// goroutine that does all connection work — so Enqueue never blocks, never
// dials, and in the steady state never allocates. Funneling all local
// senders through one queue is also what makes frames coalesce: the writer
// batches whatever has accumulated — across flows and senders — into one
// writev.
//
// The queue, freelist, writer loop and shutdown lifecycle live in the
// embedded outbox, shared with the datagram peer (UDPPeer); Peer adds only
// the TCP flavour: the stream dial and the writev flush.
type Peer struct {
	outbox

	// Writer-goroutine-only: the iovec list's backing array, and nb, the
	// view each writev consumes (WriteTo advances its receiver to the end,
	// leaving nothing to append into); and when the write deadline was
	// last pushed out, so steady flushes skip the per-flush timer update.
	iov          [][]byte
	nb           net.Buffers
	lastDeadline time.Time
}

// NewPeer creates a peer and starts its writer. resolve is called on the
// writer goroutine at dial time (never on the data path); returning false
// means the remote address is currently unknown, which is treated like a
// failed dial: backoff and retry. It counts into its transport's ctr.
func NewPeer(resolve func() (string, bool), cfg Config, ctr *metrics.ShardedCounter) *Peer {
	cfg.fillDefaults()
	p := &Peer{outbox: newOutbox(cfg, resolve, ctr)}
	go p.run(p)
	return p
}

func (p *Peer) dial(addr string) (net.Conn, error) {
	p.lastDeadline = time.Time{} // fresh conn: no deadline yet
	return net.DialTimeout("tcp", addr, p.cfg.DialTimeout)
}

// flush writes one batch with a single writev. Copied frames contribute
// one iovec each; owned batches contribute header‖payload pairs pointing
// straight into the caller's refcounted buffer — released (recycleBatch)
// only after the writev returns, success or not. A write error
// severs the connection and drops the whole batch: a partial writev may
// have split a frame, so resuming on a fresh connection would corrupt the
// framing — every connection starts at a frame boundary.
func (p *Peer) flush(c net.Conn, batch []outFrame) {
	// Stall protection: a wedged receiver must fail the flush instead of
	// blocking the writer forever. Refreshing the deadline costs runtime
	// timer locks, so it is pushed out in WriteTimeout/4 steps rather than
	// per flush — the effective bound stays within [3/4, 1]×WriteTimeout.
	// While draining, the deadline is clamped to the drain deadline
	// instead: a connection dialed after Close's one-shot severing timer
	// fired must not extend the shutdown by a full WriteTimeout.
	if p.isClosed() {
		dl := time.Now().Add(p.cfg.WriteTimeout)
		if d := p.armDrain(); d.Before(dl) {
			dl = d
		}
		c.SetWriteDeadline(dl) //nolint:errcheck
		p.lastDeadline = time.Time{}
	} else if now := time.Now(); now.Sub(p.lastDeadline) > p.cfg.WriteTimeout/4 {
		c.SetWriteDeadline(now.Add(p.cfg.WriteTimeout)) //nolint:errcheck
		p.lastDeadline = now
	}
	var frames int64
	iov := p.iov[:0]
	for _, f := range batch {
		frames += f.frames()
		if f.ob != nil {
			for i, b := range f.ob.bufs {
				iov = append(iov, f.ob.hdrs[i*HeaderLen:(i+1)*HeaderLen], b)
			}
		} else {
			iov = append(iov, f.buf)
		}
	}
	p.nb = iov
	n, err := p.nb.WriteTo(c)
	clear(iov) // a short write leaves views behind: pin no payload
	p.iov = iov[:0]
	p.count(cBytesOut, n)
	if err != nil {
		p.count(cSendFailures, 1)
		p.count(cDropped, frames)
		p.dropConn()
	} else {
		p.count(cFlushes, 1)
		p.count(cFramesOut, frames)
	}
	p.recycleBatch(batch)
}
