package book

import (
	"fmt"

	"infoslicing/internal/overlay"
	"infoslicing/internal/wire"
)

// NewTransport constructs the overlay substrate both commands share, keyed
// by the -transport flag: "tcp" for stream sockets (reconnect, writev
// batching), "udp" for congestion-controlled datagrams (sendmmsg batching,
// CUBIC windows, loss measured — never retransmitted; the slicing
// redundancy d' > d absorbs erasures instead).
func NewTransport(kind string, addrs map[wire.NodeID]string) (*overlay.Static, error) {
	switch kind {
	case "tcp":
		return overlay.NewStaticTCP(addrs), nil
	case "udp":
		return overlay.NewStaticUDP(addrs, overlay.UDPOptions{}), nil
	default:
		return nil, fmt.Errorf("unknown transport %q (want tcp or udp)", kind)
	}
}
