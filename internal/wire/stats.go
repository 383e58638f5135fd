package wire

// TransportStats is the one stats vocabulary every overlay transport speaks
// (the facade, the in-memory channel network, the virtual-time simnet, and
// the TCP/UDP socket transports all return it). It lives in this package —
// the shared wire vocabulary — because transports above and below
// internal/overlay must agree on it without importing each other.
type TransportStats struct {
	// Packets counts packets handed to the wire (frames written on socket
	// transports, deliveries scheduled on in-memory ones).
	Packets int64
	// Bytes counts payload bytes behind Packets.
	Bytes int64
	// Lost counts packets that will never arrive: emulated link loss,
	// queue sheds at full per-peer queues, failed flushes, and — on the
	// datagram transport — datagrams the ack channel proved lost on the
	// wire. Loss is answered by coding redundancy and splice repair, never
	// by transport retransmission.
	Lost int64
	// SendFailures counts write errors (each severs a socket connection).
	SendFailures int64
	// Reconnects counts successful re-dials after a connection was lost.
	Reconnects int64
	// Retransmissions counts transport-level payload retransmissions. It is
	// structurally zero on every transport in this repository — the coding
	// layer owns reliability — and exists so experiments can assert that
	// (the UDP loss harness gates on Retransmissions == 0).
	Retransmissions int64
}
