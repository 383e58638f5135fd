// Package onion implements the onion-routing baseline the paper compares
// against (§2, §7, §8.1).
//
// Route setup follows classic onion routing (Goldschlag et al.): the source
// wraps, for each relay on the path, a layer containing that relay's session
// key, its next hop, and the remaining onion — the layer is hybrid-encrypted
// (RSA-OAEP key wrap + symmetric seal) to the relay's public key. Data cells
// are layered with the computationally cheap symmetric session keys only,
// exactly as the paper notes ("public key cryptography is used only for the
// route setup", §7.2).
//
// The package also implements "onion routing with erasure codes" (§8.1): d'
// disjoint circuits to the same destination, the message Reed-Solomon-coded
// into d' shards so any d complete circuits suffice. Unlike information
// slicing, redundancy lost to a mid-path failure is never regenerated — the
// comparison at the heart of Figs 16-17.
package onion

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"sync"

	"infoslicing/internal/erasure"
	"infoslicing/internal/metrics"
	"infoslicing/internal/overlay"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// Message types on the wire.
const (
	msgSetup byte = 1
	msgData  byte = 2
)

// ErrNoIdentity reports a node id the directory holds no key for.
var ErrNoIdentity = errors.New("onion: node has no identity in directory")

// Directory maps overlay nodes to their RSA identities — the paper's
// "centralized trusted directory server" (Tor model, §2). Information
// slicing needs nothing like it; the baseline does.
type Directory struct {
	mu  sync.RWMutex
	ids map[wire.NodeID]*slcrypto.Identity
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{ids: make(map[wire.NodeID]*slcrypto.Identity)}
}

// Generate creates and registers identities for the given nodes.
func (d *Directory) Generate(r io.Reader, bits int, nodes ...wire.NodeID) error {
	for _, id := range nodes {
		ident, err := slcrypto.NewIdentity(r, bits)
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.ids[id] = ident
		d.mu.Unlock()
	}
	return nil
}

// Identity returns a node's keypair.
func (d *Directory) Identity(id wire.NodeID) (*slcrypto.Identity, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ident, ok := d.ids[id]
	return ident, ok
}

// Message is a reassembled application message at the destination.
type Message struct {
	Circuit uint64
	Data    []byte
}

// Node is an onion relay daemon.
type Node struct {
	id    wire.NodeID
	ident *slcrypto.Identity
	tr    overlay.Transport

	mu       sync.Mutex
	circuits map[uint64]*circuit
	// pending buffers data cells that arrive before their circuit's setup
	// (transports have datagram semantics, so reordering is legal).
	pending map[uint64][][]byte
	// transfers holds erasure-coded reassembly state when this node is the
	// destination of a multi-circuit transfer.
	transfers map[uint64]*transfer

	received chan Message
	ctr      metrics.Block // vocab, written under mu
	closed   bool
}

// The node's counters.
const cSetupIn, cDataIn, cForwarded, cDelivered = 0, 1, 2, 3

var vocab = metrics.NewVocab("setup_in", "data_in", "forwarded", "delivered")

type circuit struct {
	key      slcrypto.SymmetricKey
	next     wire.NodeID // 0: we are the exit
	nextCirc uint64
	receiver bool
}

type transfer struct {
	code   *erasure.Code
	shards map[int][]byte
	parts  map[int]map[uint32][]byte // shard -> cellIdx -> data
	total  map[int]uint32
	done   bool
}

// NewNode attaches an onion relay to the transport.
func NewNode(id wire.NodeID, dir *Directory, tr overlay.Transport) (*Node, error) {
	ident, ok := dir.Identity(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoIdentity, id)
	}
	n := &Node{
		id:        id,
		ident:     ident,
		tr:        tr,
		circuits:  make(map[uint64]*circuit),
		pending:   make(map[uint64][][]byte),
		transfers: make(map[uint64]*transfer),
		received:  make(chan Message, 256),
		ctr:       make(metrics.Block, len(vocab)),
	}
	if err := tr.Attach(id, n.onPacket); err != nil {
		return nil, err
	}
	return n, nil
}

// ID returns the node's overlay identity.
func (n *Node) ID() wire.NodeID { return n.id }

// Received yields messages for which this node was the destination.
func (n *Node) Received() <-chan Message { return n.received }

// Counters reads the node's counters.
func (n *Node) Counters() metrics.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ctr.Snapshot(vocab)
}

// Close detaches the node.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.tr.Detach(n.id)
}

func (n *Node) onPacket(from wire.NodeID, data []byte) {
	if len(data) < 9 {
		return
	}
	typ := data[0]
	circ := binary.BigEndian.Uint64(data[1:9])
	body := data[9:]
	switch typ {
	case msgSetup:
		n.handleSetup(circ, body)
	case msgData:
		n.handleData(circ, body)
	}
}

// Setup layer layout (plaintext inside the hybrid envelope):
//
//	next(4) nextCirc(8) receiver(1) innerLen(4) inner...
//
// Envelope: wrappedKeyLen(2) wrappedKey sealed(layer).
func (n *Node) handleSetup(circ uint64, body []byte) {
	n.mu.Lock()
	n.ctr[cSetupIn]++
	n.mu.Unlock()
	if len(body) < 2 {
		return
	}
	wl := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+wl {
		return
	}
	key, err := n.ident.UnwrapKey(body[2 : 2+wl])
	if err != nil {
		return
	}
	layer, err := key.Open(body[2+wl:])
	if err != nil || len(layer) < 17 {
		return
	}
	next := wire.NodeID(binary.BigEndian.Uint32(layer))
	nextCirc := binary.BigEndian.Uint64(layer[4:])
	receiver := layer[12] == 1
	innerLen := int(binary.BigEndian.Uint32(layer[13:]))
	if len(layer) < 17+innerLen {
		return
	}
	inner := layer[17 : 17+innerLen]

	n.mu.Lock()
	n.circuits[circ] = &circuit{key: key, next: next, nextCirc: nextCirc, receiver: receiver}
	replay := n.pending[circ]
	delete(n.pending, circ)
	n.mu.Unlock()
	for _, cell := range replay {
		n.handleData(circ, cell)
	}

	if next != 0 && innerLen > 0 {
		frame := make([]byte, 9+len(inner))
		frame[0] = msgSetup
		binary.BigEndian.PutUint64(frame[1:], nextCirc)
		copy(frame[9:], inner)
		n.tr.Send(n.id, next, frame) //nolint:errcheck
	}
}

// handleData strips one symmetric layer and forwards, or delivers if this
// node is the circuit's receiver.
func (n *Node) handleData(circ uint64, body []byte) {
	n.mu.Lock()
	n.ctr[cDataIn]++
	c, ok := n.circuits[circ]
	if !ok && len(n.pending[circ]) < 1024 {
		n.pending[circ] = append(n.pending[circ], append([]byte(nil), body...))
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	plain, err := c.key.Open(body)
	if err != nil {
		return
	}
	if c.receiver {
		n.deliver(circ, plain)
		return
	}
	if c.next == 0 {
		return
	}
	frame := make([]byte, 9+len(plain))
	frame[0] = msgData
	binary.BigEndian.PutUint64(frame[1:], c.nextCirc)
	copy(frame[9:], plain)
	n.mu.Lock()
	n.ctr[cForwarded]++
	n.mu.Unlock()
	n.tr.Send(n.id, c.next, frame) //nolint:errcheck
}

// Cell layout at the receiver (after all layers are stripped):
//
//	transferID(8) shard(2) d(2) dp(2) cellIdx(4) totalCells(4) payload...
//
// A plain single-circuit stream uses shard = 0, d = dp = 1.
func (n *Node) deliver(circ uint64, cell []byte) {
	if len(cell) < 22 {
		return
	}
	tid := binary.BigEndian.Uint64(cell)
	shard := int(binary.BigEndian.Uint16(cell[8:]))
	d := int(binary.BigEndian.Uint16(cell[10:]))
	dp := int(binary.BigEndian.Uint16(cell[12:]))
	cellIdx := binary.BigEndian.Uint32(cell[14:])
	totalCells := binary.BigEndian.Uint32(cell[18:])
	payload := cell[22:]

	n.mu.Lock()
	defer n.mu.Unlock()
	tr, ok := n.transfers[tid]
	if !ok {
		c, err := erasure.New(d, dp)
		if err != nil {
			return
		}
		tr = &transfer{
			code:   c,
			shards: make(map[int][]byte),
			parts:  make(map[int]map[uint32][]byte),
			total:  make(map[int]uint32),
		}
		n.transfers[tid] = tr
	}
	if tr.done {
		return
	}
	if tr.parts[shard] == nil {
		tr.parts[shard] = make(map[uint32][]byte)
	}
	tr.parts[shard][cellIdx] = append([]byte(nil), payload...)
	tr.total[shard] = totalCells
	// Shard complete?
	if uint32(len(tr.parts[shard])) == totalCells {
		var buf []byte
		for i := uint32(0); i < totalCells; i++ {
			p, ok := tr.parts[shard][i]
			if !ok {
				return
			}
			buf = append(buf, p...)
		}
		tr.shards[shard] = buf
	}
	if len(tr.shards) >= tr.code.K {
		msg, err := tr.code.Reconstruct(tr.shards)
		if err != nil {
			return
		}
		tr.done = true
		n.ctr[cDelivered]++
		select {
		case n.received <- Message{Circuit: circ, Data: msg}:
		default:
		}
	}
}

// randUint64 draws a circuit id.
func randUint64(rng *mrand.Rand) uint64 {
	if rng != nil {
		return rng.Uint64()
	}
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck
	return binary.BigEndian.Uint64(b[:])
}
