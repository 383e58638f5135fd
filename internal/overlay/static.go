package overlay

import (
	"fmt"
	"net"
	"sync"

	"infoslicing/internal/metrics"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// Static is the socket transport: every overlay node has a pre-agreed
// listen address (the "address book"), so independent processes — one relay
// daemon per process, as in the paper's PlanetLab deployment (§7.1) — can
// form one overlay. Whether the bytes between daemons ride TCP streams or
// congestion-controlled UDP datagrams is a link flavour fixed at
// construction; everything else — book, liveness, learned endpoints, the
// send path, counters — exists once. Framing is the same either way:
// 4-byte length, 4-byte sender id, payload.
//
// Only the nodes attached in this process listen; Send can reach any node
// in the book, local or remote. It is an address-resolution shim over
// internal/transport: each remote host gets ONE peer — a bounded queue, a
// batching writer, reconnect-with-backoff — shared by every local sender
// (frames carry their sender in the header), which is what batches writes
// across flows and lets a transfer ride out a peer process being killed
// and restarted (the e2e deployment test does exactly that).
type Static struct {
	link link
	// loopback is set by the loopback-network constructors (NewTCPNetwork,
	// NewUDPNetwork): every node lives in this process, so Attach binds an
	// ephemeral port and a never-attached id reads as down.
	loopback bool

	mu     sync.RWMutex
	book   map[wire.NodeID]string
	local  map[wire.NodeID]*staticEndpoint
	down   map[wire.NodeID]bool
	peers  *transport.PeerSet
	reg    *endpointRegistry
	closed bool
	ctr    *metrics.ShardedCounter // outlives every peer and listener that counts into it
}

// link is the flavour of a Static: how a node listens and how a host's
// outbound peer is made. stream and *datagram implement it.
type link interface {
	listen(addr string, deliver transport.Deliver, onSender func(wire.NodeID, string), ctr *metrics.ShardedCounter) (endpoint, error)
	newPeer(to wire.NodeID, resolve func() (string, bool), ctr *metrics.ShardedCounter) transport.Link
}

// endpoint is one bound listener (transport.Acceptor or UDPAcceptor),
// created stopped: Start begins accepting or reading.
type endpoint interface {
	Start()
	Close()
	Addr() string
}

type staticEndpoint struct {
	endpoint
	// dynamic marks an AttachDynamic endpoint: its ephemeral address is
	// meaningless once detached, so Detach erases it from the book (a
	// pre-agreed book entry survives detach — the process may come back).
	dynamic bool
}

// stream is the TCP flavour: reconnecting writev peers, slab readers.
type stream struct{}

func (stream) listen(addr string, deliver transport.Deliver, onSender func(wire.NodeID, string), ctr *metrics.ShardedCounter) (endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	acc := transport.NewAcceptor(ln, transport.DefaultMaxFrame, deliver, ctr)
	acc.OnSender = onSender
	return acc, nil
}

func (stream) newPeer(_ wire.NodeID, resolve func() (string, bool), ctr *metrics.ShardedCounter) transport.Link {
	return transport.NewPeer(resolve, transport.Config{}, ctr)
}

// NewStaticTCP creates a TCP transport over the given id→address book.
func NewStaticTCP(book map[wire.NodeID]string) *Static {
	return newStatic(book, stream{}, newEndpointRegistry(nil))
}

// NewTCPNetwork runs the overlay over real loopback TCP sockets: an empty
// address book where every node binds an ephemeral port on Attach. The
// paper's prototype is a daemon listening on a special port per overlay
// host (§7.1); this is the same shape collapsed onto 127.0.0.1, riding the
// identical peer core and wire format.
func NewTCPNetwork() *Static {
	s := NewStaticTCP(nil)
	s.loopback = true
	return s
}

func newStatic(book map[wire.NodeID]string, l link, reg *endpointRegistry) *Static {
	s := &Static{
		link:  l,
		book:  make(map[wire.NodeID]string, len(book)),
		local: make(map[wire.NodeID]*staticEndpoint),
		down:  make(map[wire.NodeID]bool),
		reg:   reg,
		ctr:   transport.NewCounters(),
	}
	for id, addr := range book {
		s.book[id] = addr
	}
	s.peers = transport.NewPeerSet(func(to wire.NodeID) transport.Link {
		// The resolver runs on the peer's writer at dial time, never on the
		// data path.
		return l.newPeer(to, func() (string, bool) { return s.resolve(to) }, s.ctr)
	})
	return s
}

// resolve maps a node to its address: the book, else a learned endpoint
// (the registry only ever holds ids the book lacks, so there is no
// precedence question).
func (s *Static) resolve(to wire.NodeID) (string, bool) {
	s.mu.RLock()
	addr, ok := s.book[to]
	s.mu.RUnlock()
	if ok {
		return addr, true
	}
	return s.reg.learned(to)
}

// observeSender feeds the learned endpoint registry from an acceptor's
// first-frame observations. Book entries are never shadowed (static wins);
// a learned address that moved invalidates the cached peer so the next
// Send re-resolves.
func (s *Static) observeSender(id wire.NodeID, addr string) {
	s.mu.RLock()
	_, inBook := s.book[id]
	s.mu.RUnlock()
	if inBook {
		return
	}
	if s.reg.observe(id, addr) {
		s.peers.Drop(id)
	}
}

// LearnedEndpoints reports how many sender endpoints the registry currently
// holds (ids absent from the book, learned from inbound traffic).
func (s *Static) LearnedEndpoints() int { return s.reg.size() }

// Attach implements Transport: it binds the node's listener at its book
// address (a loopback network binds a fresh loopback port instead).
func (s *Static) Attach(id wire.NodeID, h Handler) error {
	if s.loopback {
		return s.AttachDynamic(id, h)
	}
	s.mu.RLock()
	addr, ok := s.book[id]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d not in address book", ErrUnknownNode, id)
	}
	return s.attach(id, addr, false, h)
}

// AttachDynamic binds the node to a fresh loopback port and records the
// address in this process's book. Processes sharing the Static instance
// (the facade's single-process deployments) resolve it like any book
// entry; remote processes cannot, so cross-process overlays must pre-agree
// every id in the book file instead.
func (s *Static) AttachDynamic(id wire.NodeID, h Handler) error {
	return s.attach(id, "127.0.0.1:0", true, h)
}

func (s *Static) attach(id wire.NodeID, addr string, dynamic bool, h Handler) error {
	ep := &staticEndpoint{dynamic: dynamic}
	var err error
	ep.endpoint, err = s.link.listen(addr, func(from wire.NodeID, data []byte) bool {
		s.mu.RLock()
		cur := s.local[id]
		isDown := s.down[id] || s.down[from]
		s.mu.RUnlock()
		if cur != ep {
			return false // detached or superseded: stop delivering
		}
		if isDown {
			// Crashed receiver or sender (churn injection): discarded.
			return true
		}
		h(from, data)
		return true
	}, s.observeSender, s.ctr)
	if err != nil {
		return fmt.Errorf("overlay: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ep.Close()
		return ErrNodeDown
	}
	if _, dup := s.local[id]; dup {
		s.mu.Unlock()
		ep.Close()
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	s.local[id] = ep
	s.book[id] = ep.Addr()
	s.mu.Unlock()
	// Accept only after the endpoint is published: a reconnecting peer's
	// first frames must find the liveness check already true, not get
	// their fresh connection dropped by the attach race.
	ep.Start()
	return nil
}

// Addr returns a node's listen address — from the book, or the live
// endpoint for dynamically attached ids (diagnostics).
func (s *Static) Addr(id wire.NodeID) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ep, ok := s.local[id]; ok {
		return ep.Addr(), true
	}
	addr, ok := s.book[id]
	return addr, ok
}

// Detach implements Transport.
func (s *Static) Detach(id wire.NodeID) {
	s.mu.Lock()
	ep := s.local[id]
	delete(s.local, id)
	if ep != nil && ep.dynamic {
		delete(s.book, id) // ephemeral address: dead the moment it detaches
	}
	s.mu.Unlock()
	s.peers.Drop(id)
	if ep != nil {
		ep.Close()
	}
}

// Fail crashes a local node (churn injection for single-process
// deployments): its inbound frames are discarded, its sends error, and
// frames it already queued on shared host connections are discarded at
// delivery. Cross-process churn is injected by killing the process.
func (s *Static) Fail(id wire.NodeID) {
	s.mu.Lock()
	s.down[id] = true
	s.mu.Unlock()
}

// Revive restores a failed node.
func (s *Static) Revive(id wire.NodeID) {
	s.mu.Lock()
	delete(s.down, id)
	s.mu.Unlock()
}

// Down reports whether the node is marked failed in this process. A
// loopback network hosts every node in-process, so there "not attached"
// means the node does not exist and reads as down too (a book spanning
// processes cannot know that).
func (s *Static) Down(id wire.NodeID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, attached := s.local[id]; s.loopback && !attached {
		return true
	}
	return s.down[id]
}

// route is the front half of Send and SendOwned: the liveness checks and
// the receiver's host peer. A nil peer means the frames go nowhere, with
// the error (if any) the caller reports. Never blocks, never dials.
func (s *Static) route(from, to wire.NodeID) (transport.Link, error) {
	s.mu.RLock()
	_, known := s.book[to]
	isDown := s.down[from]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		// Racing Close: the peer set is tearing down (or already gone). A
		// datagram into the void, not congestion — callers must not count
		// it toward SendDrops, and the peer core's dead-then-reap ordering
		// guarantees nothing enqueued past this point strands.
		return nil, nil
	}
	if isDown {
		return nil, fmt.Errorf("%w: %d", ErrNodeDown, from)
	}
	if !known {
		// Not in the book: a learned endpoint may still resolve it.
		if _, ok := s.reg.learned(to); !ok {
			return nil, nil // unknown receiver: datagram semantics
		}
	}
	return s.peers.Get(to), nil // nil once the set is closed: the void again
}

// shed is the back half, after an enqueue was refused: a full queue is the
// advisory ErrSendQueueFull, unless the queue "filled" because Close reaped
// it.
func (s *Static) shed() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil
	}
	return ErrSendQueueFull
}

// Send implements Transport: resolve the receiver, stamp the frame with its
// sender, hand it to the receiver's host peer. Never blocks, never dials on
// this path; a full peer queue drops and returns ErrSendQueueFull
// (advisory).
func (s *Static) Send(from, to wire.NodeID, data []byte) error {
	p, err := s.route(from, to)
	if p == nil {
		return err
	}
	if !p.Enqueue(from, data) {
		return s.shed()
	}
	return nil
}

// SendOwned implements OwnedSender: the same checks and resolution as
// Send, but the burst's frames go to the peer writer by reference — the
// stream writer builds header‖payload iovecs straight over bufs, the
// datagram writer copies them once at pack time — and release fires when
// the batch is flushed, packed or dropped. Paths that never reach the peer
// consume release here; EnqueueOwned consumes it on every path of its own,
// so it fires exactly once regardless.
func (s *Static) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	p, err := s.route(from, to)
	if p == nil {
		release()
		return err
	}
	if !p.EnqueueOwned(from, bufs, release) {
		return s.shed()
	}
	return nil
}

// Counters reads the transport's counters: every peer's and listener's,
// over the transport's whole life (see transport.NewCounters).
func (s *Static) Counters() metrics.Snapshot { return s.ctr.Snapshot() }

// PeerStats returns the benchmark's view of the outbound peers' counters.
func (s *Static) PeerStats() transport.Stats {
	c := s.Counters()
	return transport.Stats{
		Enqueued: c.Get("enqueued"), Dropped: c.Get("dropped"), SendFailures: c.Get("send_failures"),
		Flushes: c.Get("flushes"), FramesOut: c.Get("frames_out"), Reconnects: c.Get("reconnects"),
	}
}

// Stats implements Transport: frames and bytes out, and frames lost locally
// (wire loss on the datagram flavour is datagrams_lost).
func (s *Static) Stats() TransportStats {
	c := s.Counters()
	return TransportStats{Packets: c.Get("frames_out"), Bytes: c.Get("bytes_out"), Lost: c.Get("dropped")}
}

// Close shuts down peers (draining queued frames briefly) and the
// listeners owned by this process.
func (s *Static) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	eps := s.local
	s.local = map[wire.NodeID]*staticEndpoint{}
	s.mu.Unlock()
	s.peers.Close()
	for _, ep := range eps {
		ep.Close()
	}
}
