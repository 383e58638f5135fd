package transport

import (
	"sync"
	"time"

	"infoslicing/internal/wire"
)

// Link is what a PeerSet needs from one outbound peer, satisfied by both
// the stream Peer and the datagram UDPPeer: the non-blocking enqueues
// (copying and owned-buffer) and the two shutdown flavours. Both flavours
// inherit all of it from the shared outbox.
type Link interface {
	Enqueue(from wire.NodeID, data []byte) bool
	EnqueueOwned(from wire.NodeID, bufs [][]byte, release func()) bool
	Close()
	CloseNow()
}

// PeerSet owns every peer of one transport, keyed by the remote node and
// created on first use. One peer per remote host — not per (sender,
// receiver) pair — matches the paper's one-daemon-per-host deployment and
// is what makes write batching effective: every local node's frames toward
// a host funnel through one queue and coalesce into shared writev (or
// sendmmsg) calls — each frame names its sender in its header. Get is on
// the data path (one read-locked map lookup); everything else is
// control-plane. The make hook decides which peer flavour a miss creates
// and how that peer resolves its node's address, so the TCP and UDP
// transports share this set unchanged and the data path builds no
// resolver closure per call. The peers' counters are not the set's: they
// live in the transport's block, which outlives every peer.
type PeerSet struct {
	make func(to wire.NodeID) Link

	mu     sync.RWMutex
	peers  map[wire.NodeID]Link
	closed bool
}

// NewPeerSet creates an empty peer set over a peer constructor. The hook
// receives the remote node, so it can bind the node's address resolver and
// any per-destination state (the UDP peer's loss watcher) at creation.
func NewPeerSet(make func(to wire.NodeID) Link) *PeerSet {
	return &PeerSet{make: make, peers: map[wire.NodeID]Link{}}
}

// Lookup returns the existing peer for the remote node, or nil.
func (ps *PeerSet) Lookup(to wire.NodeID) Link {
	ps.mu.RLock()
	p := ps.peers[to]
	ps.mu.RUnlock()
	return p
}

// Get returns the peer for the remote node, creating it on first use.
// Returns nil after Close.
func (ps *PeerSet) Get(to wire.NodeID) Link {
	ps.mu.RLock()
	p, closed := ps.peers[to], ps.closed
	ps.mu.RUnlock()
	if p != nil || closed {
		return p
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return nil
	}
	if p = ps.peers[to]; p != nil {
		return p
	}
	p = ps.make(to)
	ps.peers[to] = p
	return p
}

// Drop immediately closes (CloseNow) the node's peer, if any, removing it
// from the set. Used by Detach, where draining toward a gone listener would
// only stall; a later Get re-creates the peer and resolves the node's fresh
// address.
func (ps *PeerSet) Drop(to wire.NodeID) {
	ps.mu.Lock()
	p := ps.peers[to]
	delete(ps.peers, to)
	ps.mu.Unlock()
	if p != nil {
		p.CloseNow()
	}
}

// UDPPaths reads the live datagram peers' paths, states rather than counts:
// the largest smoothed RTT and the sum of the windows (zero on streams).
func (ps *PeerSet) UDPPaths() (srtt time.Duration, window int) {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	for _, p := range ps.peers {
		if up, ok := p.(*UDPPeer); ok {
			s, w := up.path()
			srtt, window = max(srtt, s), window+w
		}
	}
	return srtt, window
}

// Close gracefully closes every peer concurrently (each drains its queue,
// bounded by DrainTimeout) and blocks until all writers have exited. The
// set refuses new peers afterwards.
func (ps *PeerSet) Close() {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	ps.closed = true
	peers := make([]Link, 0, len(ps.peers))
	for _, p := range ps.peers {
		peers = append(peers, p)
	}
	ps.peers = map[wire.NodeID]Link{}
	ps.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p Link) {
			defer wg.Done()
			p.Close()
		}(p)
	}
	wg.Wait()
}
