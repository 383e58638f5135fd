//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// Batched datagram I/O on Linux: sendmmsg/recvmmsg through the runtime
// poller via syscall.RawConn, so one syscall moves a whole batch while the
// sockets stay in the netpoller's non-blocking regime (EAGAIN from the raw
// call parks the goroutine exactly like a plain Read/Write would). The
// stdlib syscall package predates sendmmsg, so its number comes from the
// per-arch sysnum files; recvmmsg is defined there too for symmetry.
//
// mmsghdr is struct mmsghdr from <sys/socket.h> on 64-bit Linux: a msghdr
// plus the per-message byte count the kernel fills in, padded to 8 bytes.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// batchSender holds the reusable sendmmsg scratch for one peer's writer.
// The zero value is ready; reset re-sizes it (and forgets the cached
// socket) across redials.
type batchSender struct {
	c    *net.UDPConn
	rc   syscall.RawConn
	msgs []mmsghdr
	iovs []syscall.Iovec

	// The RawConn.Write callback, bound once so a send allocates nothing,
	// and its inputs and results: the vector length, and what sendmmsg
	// reported.
	writeFn func(fd uintptr) bool
	vlen    int
	sent    int
	opErr   error
}

func (s *batchSender) reset(maxBatch int) {
	s.c, s.rc = nil, nil
	if maxBatch > len(s.msgs) {
		s.msgs = make([]mmsghdr, maxBatch)
		s.iovs = make([]syscall.Iovec, maxBatch)
	}
}

// send writes the datagrams to the connected socket with one sendmmsg per
// poller wakeup, returning how many were fully sent. A short count is not
// an error — the caller re-gates on its window and continues.
func (s *batchSender) send(c *net.UDPConn, dgs [][]byte) (int, error) {
	if s.c != c {
		rc, err := c.SyscallConn()
		if err != nil {
			return 0, err
		}
		s.c, s.rc = c, rc
	}
	if s.writeFn == nil {
		s.writeFn = s.sendmmsg
	}
	n := len(dgs)
	if n > len(s.msgs) {
		s.msgs = make([]mmsghdr, n)
		s.iovs = make([]syscall.Iovec, n)
	}
	for i, dg := range dgs {
		s.iovs[i].Base = &dg[0]
		s.iovs[i].SetLen(len(dg))
		s.msgs[i] = mmsghdr{}
		s.msgs[i].hdr.Iov = &s.iovs[i]
		s.msgs[i].hdr.Iovlen = 1
	}
	s.vlen, s.sent, s.opErr = n, 0, nil
	if err := s.rc.Write(s.writeFn); err != nil {
		return s.sent, err
	}
	return s.sent, s.opErr
}

func (s *batchSender) sendmmsg(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&s.msgs[0])), uintptr(s.vlen), 0, 0, 0)
	switch errno {
	case 0:
		s.sent = int(r)
	case syscall.EAGAIN:
		return false // poller waits for writability, then retries
	default:
		s.opErr = errno
	}
	return true
}

// batchReceiver drains up to `batch` datagrams per recvmmsg into staging
// buffers it borrows for the batch. After recv returns n, bufs[i][:lens[i]]
// and addrs[i] describe datagram i until release — staging only, the
// caller copies out what must survive, then releases.
//
// The staging slab (batch × MaxUDPPayload) is borrowed from recvSlabs
// inside the RawConn.Read callback, just before recvmmsg, and goes back on
// EAGAIN, before the goroutine parks, or at release. A socket with nothing
// to read therefore holds no staging: what a node parks for receiving is
// sized by the batches in hand, not by how many sockets it has open.
type batchReceiver struct {
	rc    syscall.RawConn
	rcErr error
	slab  *[]byte // the borrowed staging, nil between batches; bufs view it
	bufs  [][]byte
	lens  []int
	addrs []netip.AddrPort
	iovs  []syscall.Iovec
	msgs  []mmsghdr
	names []syscall.RawSockaddrAny

	// The RawConn.Read callback, bound once so a receive allocates nothing,
	// and its results.
	readFn func(fd uintptr) bool
	n      int
	opErr  error
}

func newBatchReceiver(c *net.UDPConn, batch int) *batchReceiver {
	if batch <= 0 {
		batch = 1
	}
	r := &batchReceiver{
		bufs:  make([][]byte, batch),
		lens:  make([]int, batch),
		addrs: make([]netip.AddrPort, batch),
		iovs:  make([]syscall.Iovec, batch),
		msgs:  make([]mmsghdr, batch),
		names: make([]syscall.RawSockaddrAny, batch),
	}
	r.rc, r.rcErr = c.SyscallConn()
	r.readFn = r.recvmmsg
	for i := range r.iovs {
		r.iovs[i].SetLen(MaxUDPPayload)
	}
	return r
}

// borrow takes a staging slab and points the receive vectors into it.
func (r *batchReceiver) borrow() {
	r.slab = getRecvSlab(len(r.bufs) * MaxUDPPayload)
	s := *r.slab
	for i := range r.bufs {
		b := s[i*MaxUDPPayload : (i+1)*MaxUDPPayload : (i+1)*MaxUDPPayload]
		r.bufs[i] = b
		r.iovs[i].Base = &b[0]
	}
}

// release gives the staging slab back, dropping every pointer into it (an
// iovec base left behind would keep the slab live after the pool let it
// go). The datagrams of the last batch are gone after. Safe to call with
// nothing borrowed.
func (r *batchReceiver) release() {
	if r.slab == nil {
		return
	}
	putRecvSlab(r.slab)
	r.slab = nil
	for i := range r.bufs {
		r.bufs[i] = nil
		r.iovs[i].Base = nil
	}
}

func (r *batchReceiver) recv() (int, error) {
	if r.rcErr != nil {
		return 0, r.rcErr
	}
	for i := range r.msgs {
		r.msgs[i] = mmsghdr{}
		r.msgs[i].hdr.Iov = &r.iovs[i]
		r.msgs[i].hdr.Iovlen = 1
		r.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.msgs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.names[i]))
	}
	r.n, r.opErr = 0, nil
	if err := r.rc.Read(r.readFn); err != nil {
		return 0, err
	}
	if r.opErr != nil {
		return 0, r.opErr
	}
	for i := 0; i < r.n; i++ {
		r.lens[i] = int(r.msgs[i].msgLen)
		r.addrs[i] = sockaddrToAddrPort(&r.names[i])
	}
	return r.n, nil
}

func (r *batchReceiver) recvmmsg(fd uintptr) bool {
	if r.slab == nil {
		r.borrow()
	}
	// Non-blocking fd: recvmmsg returns whatever is queued (up to the
	// vector length) or EAGAIN, never blocks for a full vector.
	v, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&r.msgs[0])), uintptr(len(r.msgs)), 0, 0, 0)
	switch errno {
	case 0:
		r.n = int(v)
	case syscall.EAGAIN:
		r.release() // the poller parks us: hold no staging while asleep
		return false
	default:
		r.opErr = errno
	}
	return true
}

func sockaddrToAddrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		p := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		pb := (*[2]byte)(unsafe.Pointer(&p.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(p.Addr),
			uint16(pb[0])<<8|uint16(pb[1]))
	case syscall.AF_INET6:
		p := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		pb := (*[2]byte)(unsafe.Pointer(&p.Port))
		// Unmap 4-in-6 so a dual-stack listener keys the same source the
		// same way regardless of which family the kernel reported.
		return netip.AddrPortFrom(netip.AddrFrom16(p.Addr).Unmap(),
			uint16(pb[0])<<8|uint16(pb[1]))
	}
	return netip.AddrPort{}
}
