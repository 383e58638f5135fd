package source

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/wire"
)

// Endpoints manages the source-side transport attachments: the source and
// its pseudo-sources (§3c). Besides transmitting setup and data packets,
// the endpoints listen for the two kinds of upstream traffic the protocol
// has: the establishment acknowledgment the destination sends back hop by
// hop (§7.4), and the ParentDown failure reports relays flood toward the
// source when the live-repair control plane is on.
type Endpoints struct {
	tr   overlay.Transport
	ids  []wire.NodeID
	acks chan wire.FlowID

	// onReport, when set, consumes ParentDown reports synchronously on the
	// delivery goroutine; with none set a report is dropped, which is safe —
	// relays re-report while a parent stays dead. The repair loop registers
	// itself here: under a virtual clock this keeps report processing — and
	// the splices it triggers — at the virtual instant the report arrived.
	repMu    sync.Mutex
	onReport func(DownReport)
}

// DownReport is one ParentDown report as it reaches a source endpoint: the
// stage-1 flow-id of the last re-stamping hop, the clear dedup nonce, and
// the sealed body only the source can open (by trial-decrypting with the
// graph's per-node keys, which doubles as authentication and identifies the
// reporter).
//
// Transport, when non-zero, marks a locally-originated report instead: the
// transport's own loss measurement (persistent datagram loss beyond the
// slicing redundancy budget) naming the lossy node directly. Such reports
// carry no Sealed body — they were observed by this process, so they are
// authenticated by construction and skip trial decryption.
type DownReport struct {
	Flow      wire.FlowID
	Nonce     uint64
	Sealed    []byte
	Transport wire.NodeID
}

// ErrAckTimeout reports that no establishment ack arrived in time.
var ErrAckTimeout = errors.New("source: establishment ack timed out")

// AttachEndpoints binds the given endpoint ids to the transport. Close
// detaches them.
func AttachEndpoints(tr overlay.Transport, ids []wire.NodeID) (*Endpoints, error) {
	e := &Endpoints{
		tr:   tr,
		ids:  append([]wire.NodeID(nil), ids...),
		acks: make(chan wire.FlowID, 64),
	}
	for i, id := range e.ids {
		if err := tr.Attach(id, e.onPacket); err != nil {
			for _, prev := range e.ids[:i] {
				tr.Detach(prev)
			}
			return nil, fmt.Errorf("source: attach endpoint %d: %w", id, err)
		}
	}
	return e, nil
}

// InjectTransportDown feeds the repair machinery a locally-observed
// failure: the transport measured persistent loss toward node beyond what
// the flow's redundancy can absorb. The report takes the same path as a
// relayed ParentDown — the report handler, if one is registered — so splice
// repair, not transport retransmission, is what restores delivery.
func (e *Endpoints) InjectTransportDown(node wire.NodeID) {
	e.report(DownReport{Transport: node})
}

// report hands r to the report handler, or drops it if none is registered.
func (e *Endpoints) report(r DownReport) {
	e.repMu.Lock()
	h := e.onReport
	e.repMu.Unlock()
	if h != nil {
		h(r)
	}
}

// Close detaches all endpoints.
func (e *Endpoints) Close() {
	for _, id := range e.ids {
		e.tr.Detach(id)
	}
}

func (e *Endpoints) onPacket(_ wire.NodeID, data []byte) {
	pkt, err := wire.UnmarshalPacket(data)
	if err != nil {
		return
	}
	switch pkt.Type {
	case wire.MsgAck:
		select {
		case e.acks <- pkt.Flow:
		default:
		}
	case wire.MsgParentDown:
		nonce, sealed, err := wire.ParseParentDown(pkt)
		if err != nil {
			return
		}
		// The sealed view pins the delivery buffer, which this handler owns
		// outright (buffer-ownership rule 2); the report handler reads it
		// synchronously and must not retain it.
		e.report(DownReport{Flow: pkt.Flow, Nonce: nonce, Sealed: sealed})
	}
}

// setReportHandler installs (or, with nil, removes) the synchronous report
// consumer.
func (e *Endpoints) setReportHandler(h func(DownReport)) {
	e.repMu.Lock()
	e.onReport = h
	e.repMu.Unlock()
}

// EstablishAndWait injects the setup wave and blocks until the
// establishment ack arrives, retransmitting the whole wave with exponential
// backoff while it waits. Setup packets have no per-packet reliability —
// they are datagrams over a lossy, churning overlay — so a wave that lands
// on a dead stage-1 relay (or is simply lost) would otherwise strand the
// flow until the caller gave up; the retransmissions are idempotent at the
// relays (duplicate setup packets from the same previous hop are dropped)
// and give a late-reviving relay fresh slices to decode from.
func (s *Sender) EstablishAndWait(e *Endpoints, timeout time.Duration) error {
	deadline := s.clk.Now().Add(timeout)
	wait := timeout / 16
	if wait < 5*time.Millisecond {
		wait = 5 * time.Millisecond
	}
	for {
		if err := s.Establish(); err != nil {
			return err
		}
		remain := deadline.Sub(s.clk.Now())
		if remain <= 0 {
			return ErrAckTimeout
		}
		w := wait
		if w > remain {
			w = remain
		}
		if err := s.WaitEstablished(e, w); err == nil {
			return nil
		}
		if !s.clk.Now().Before(deadline) {
			return ErrAckTimeout
		}
		wait *= 2
	}
}

// WaitEstablished blocks until an establishment ack for this sender's graph
// reaches any endpoint, or the timeout expires. The ack is stamped with a
// stage-1 flow-id, which only this sender can associate with the graph.
func (s *Sender) WaitEstablished(e *Endpoints, timeout time.Duration) error {
	valid := make(map[wire.FlowID]bool)
	for _, v := range s.graph.Stage1() {
		valid[s.graph.Flows[v]] = true
	}
	deadline := s.clk.After(timeout)
	for {
		select {
		case f := <-e.acks:
			if valid[f] {
				return nil
			}
		case <-deadline:
			return ErrAckTimeout
		}
	}
}
