//go:build !linux || (!amd64 && !arm64)

package transport

import (
	"net"
	"net/netip"
)

// Portable batch I/O: one datagram per syscall through the net package.
// Same interface as the Linux sendmmsg/recvmmsg path, so everything above
// this layer is platform-blind; only the syscalls-per-batch ratio differs.

type batchSender struct{}

func (s *batchSender) reset(maxBatch int) {}

func (s *batchSender) send(c *net.UDPConn, dgs [][]byte) (int, error) {
	for i, dg := range dgs {
		if _, err := c.Write(dg); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// batchReceiver reads one datagram per recv. ReadFromUDPAddrPort blocks
// inside the net package with the buffer already handed over, so there is
// no point at which staging could be given back before the goroutine
// parks: this receiver keeps one MaxUDPPayload buffer for its lifetime and
// release is a no-op.
type batchReceiver struct {
	c     *net.UDPConn
	bufs  [][]byte
	lens  []int
	addrs []netip.AddrPort
}

func newBatchReceiver(c *net.UDPConn, batch int) *batchReceiver {
	return &batchReceiver{
		c:     c,
		bufs:  [][]byte{make([]byte, MaxUDPPayload)},
		lens:  make([]int, 1),
		addrs: make([]netip.AddrPort, 1),
	}
}

func (r *batchReceiver) release() {}

func (r *batchReceiver) recv() (int, error) {
	n, ap, err := r.c.ReadFromUDPAddrPort(r.bufs[0])
	if err != nil {
		return 0, err
	}
	r.lens[0] = n
	r.addrs[0] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	return 1, nil
}
