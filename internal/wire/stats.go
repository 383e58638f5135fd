package wire

// TransportStats is the view of its counters every overlay transport
// reports. It lives in this package, the shared wire vocabulary, so that
// transports above and below internal/overlay agree on it.
type TransportStats struct {
	Packets int64 // handed to the wire: frames written, or deliveries scheduled
	Bytes   int64 // payload bytes behind Packets
	// Lost counts packets that will never arrive: emulated link loss, or on
	// sockets frames shed at full queues, failed flushes and drain cutoffs.
	Lost int64
}
