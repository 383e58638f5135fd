// Package wire defines the on-the-wire representation of information
// slicing: packets (Fig. 3 of the paper), information-slice slots, the
// per-node routing information block Ix (§4.3.1), and the per-hop
// scrambling transforms that defeat pattern-insertion attacks (§9.4a).
//
// Every packet carries a flow-id in the clear (so a relay can group packets
// of the same anonymous flow) and a fixed number of constant-size slice
// slots. The first slot of a setup packet is always the slice belonging to
// the node that receives the packet; remaining slots belong to downstream
// nodes and are opaque. Consumed slots are replaced by random padding so the
// packet size never changes as it moves through the graph (§9.4c).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"

	"infoslicing/internal/code"
)

// NodeID identifies an overlay node. The paper uses IP addresses; the
// overlay substrate maps NodeIDs to transport endpoints.
type NodeID uint32

// FlowID is the 64-bit per-hop flow identifier carried in the clear
// (§4.3.1). It changes at every relay so colluding non-adjacent attackers
// cannot match packets of the same flow.
type FlowID uint64

// MsgType discriminates packet roles.
type MsgType uint8

// Packet types.
const (
	MsgSetup MsgType = 1 // graph-establishment slices
	MsgData  MsgType = 2 // data-phase slices
	MsgAck   MsgType = 3 // receiver acknowledgment (measurement only)

	// Control plane (live churn repair). Heartbeats flow parent→child on
	// the data direction; ParentDown reports travel child→parent along the
	// ack path, re-stamped hop by hop; Splice is the setup variant that
	// re-keys only the hops touched by a repair (see control.go).
	MsgHeartbeat  MsgType = 4
	MsgParentDown MsgType = 5
	MsgSplice     MsgType = 6
)

// Errors.
var (
	ErrTruncated = errors.New("wire: truncated packet")
	ErrBadSlice  = errors.New("wire: slice checksum mismatch")
	ErrBadInfo   = errors.New("wire: malformed per-node info")
)

const packetHeader = 1 + 8 + 4 + 1 + 2 + 1 // type, flow, seq, coefflen, slotlen, numslots

// HeaderLen is the fixed packet header size. Dispatch layers (the relay's
// shard router) use it to read the type and flow-id without a full parse.
const HeaderLen = packetHeader

// Packet is the unit of transmission between overlay nodes.
type Packet struct {
	Type     MsgType
	Flow     FlowID
	Seq      uint32 // data-phase sequence number; 0 during setup
	CoeffLen uint8  // d: length of each slice's coefficient vector
	SlotLen  uint16 // bytes per slot, identical for all slots
	Slots    [][]byte

	// one backs Slots for single-slot packets (every data packet), so
	// parsing one allocates nothing. Slots may therefore point into the
	// Packet itself: copy a parsed Packet with Clone, never by value.
	one [1][]byte
	// area is the contiguous run of the receive buffer the parsed Slots
	// view (nil for a packet that was not parsed).
	area []byte
}

// SlotArea returns the bytes behind a parsed packet's slots as one view:
// slot i is SlotArea()[i*SlotLen:][:SlotLen]. A relay retains it, rather
// than a clone of the slot table, for the set-up packets it will forward.
func (p *Packet) SlotArea() []byte { return p.area }

// Marshal serializes the packet into a fresh buffer.
func (p *Packet) Marshal() []byte {
	return p.AppendTo(make([]byte, 0, p.Size()))
}

// AppendTo appends the packet's serialization to dst and returns the
// extended slice. Callers on the hot path keep one framing buffer and pass
// dst[:0] each round; every transport copies (or writes out) the bytes
// before Send returns, so the buffer is immediately reusable.
func (p *Packet) AppendTo(dst []byte) []byte {
	dst = AppendPacketHeader(dst, p.Type, p.Flow, p.Seq, p.CoeffLen, p.SlotLen, len(p.Slots))
	for _, s := range p.Slots {
		if len(s) != int(p.SlotLen) {
			panic(fmt.Sprintf("wire: slot size %d != declared %d", len(s), p.SlotLen))
		}
		dst = append(dst, s...)
	}
	return dst
}

// AppendPacketHeader appends the fixed packet header. Slot payload bytes
// (numSlots × slotLen of them) must follow for the result to parse.
func AppendPacketHeader(dst []byte, typ MsgType, flow FlowID, seq uint32, coeffLen uint8, slotLen uint16, numSlots int) []byte {
	var h [packetHeader]byte
	h[0] = byte(typ)
	binary.BigEndian.PutUint64(h[1:], uint64(flow))
	binary.BigEndian.PutUint32(h[9:], seq)
	h[13] = coeffLen
	binary.BigEndian.PutUint16(h[14:], slotLen)
	h[16] = uint8(numSlots)
	return append(dst, h[:]...)
}

// PatchFlow rewrites the flow-id of an already-marshaled packet in place.
// The source uses it to retarget one framed slice at each stage-1 relay
// without re-serializing the payload.
func PatchFlow(b []byte, flow FlowID) {
	binary.BigEndian.PutUint64(b[1:], uint64(flow))
}

// Size returns the marshaled length without serializing.
func (p *Packet) Size() int { return packetHeader + len(p.Slots)*int(p.SlotLen) }

// UnmarshalPacket parses a packet into a fresh Packet; see ParsePacket.
func UnmarshalPacket(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := ParsePacket(b, p); err != nil {
		return nil, err
	}
	return p, nil
}

// ParsePacket parses b into the caller-owned p, overwriting it; on error p
// is unspecified. The slots are views into b — no bytes are copied. The
// caller must own b (both transports hand each handler a private buffer)
// and must copy any slot it intends to mutate; retaining a slot view pins
// the whole receive buffer, which is the intended zero-copy behavior on the
// relay hot path. p's slot table is reused across calls (a single-slot
// packet uses storage inside p), so the steady state allocates nothing; a
// holder that keeps the packet past p's next parse must Clone it.
func ParsePacket(b []byte, p *Packet) error {
	if len(b) < packetHeader {
		return ErrTruncated
	}
	p.Type = MsgType(b[0])
	p.Flow = FlowID(binary.BigEndian.Uint64(b[1:]))
	p.Seq = binary.BigEndian.Uint32(b[9:])
	p.CoeffLen = b[13]
	p.SlotLen = binary.BigEndian.Uint16(b[14:])
	n, sl := int(b[16]), int(p.SlotLen)
	if len(b) < packetHeader+n*sl {
		return ErrTruncated
	}
	switch {
	case n == 1:
		p.Slots = p.one[:1]
	case n <= cap(p.Slots):
		p.Slots = p.Slots[:n]
	default:
		p.Slots = make([][]byte, n)
	}
	p.area = b[packetHeader : packetHeader+n*sl : packetHeader+n*sl]
	off := packetHeader
	for i := range p.Slots {
		p.Slots[i] = b[off : off+sl : off+sl]
		off += sl
	}
	return nil
}

// Clone returns a copy of p with its own slot table (the slot bytes are
// still the shared views): what a holder keeps when p itself is parse
// scratch about to be reused.
func (p *Packet) Clone() *Packet {
	q := &Packet{Type: p.Type, Flow: p.Flow, Seq: p.Seq, CoeffLen: p.CoeffLen, SlotLen: p.SlotLen, area: p.area}
	q.Slots = append(q.one[:0], p.Slots...)
	return q
}

// --- Slice slots -----------------------------------------------------------

// A slot holds: coeff (d bytes) ‖ payload ‖ crc32 (4 bytes). The CRC lets a
// node distinguish a genuine slice addressed to it from the random padding
// that relays insert for lost or consumed slices; padding fails the check
// with probability 1-2^-32. In transit the whole slot is scrambled per-hop,
// so outside observers cannot run the same check (§9.4a).

const slotCRC = 4

// SlotLenFor returns the slot size for split factor d and payload length.
func SlotLenFor(d, payloadLen int) int { return d + payloadLen + slotCRC }

// EncodeSlot packs a slice into a freshly allocated slot.
func EncodeSlot(s code.Slice) []byte {
	return AppendSlot(make([]byte, 0, len(s.Coeff)+len(s.Payload)+slotCRC), s)
}

// AppendSlot appends the slot encoding of s (coeff ‖ payload ‖ crc32) to
// dst. Relays use it to assemble outgoing packets directly in their framing
// buffer, skipping the intermediate slot allocation.
func AppendSlot(dst []byte, s code.Slice) []byte {
	start := len(dst)
	dst = append(dst, s.Coeff...)
	dst = append(dst, s.Payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, sum)
}

// DecodeSlot unpacks a slot into a slice, verifying the checksum. The
// returned slice's Coeff and Payload are views into slot: callers that
// mutate or outlive the buffer must Clone, callers that only read (decode,
// forward-by-copy) take the zero-copy path.
func DecodeSlot(slot []byte, d int) (code.Slice, error) {
	if len(slot) < d+slotCRC {
		return code.Slice{}, ErrTruncated
	}
	sum := crc32.ChecksumIEEE(slot[:len(slot)-slotCRC])
	if sum != binary.BigEndian.Uint32(slot[len(slot)-slotCRC:]) {
		return code.Slice{}, ErrBadSlice
	}
	return code.Slice{
		Coeff:   slot[:d:d],
		Payload: slot[d : len(slot)-slotCRC : len(slot)-slotCRC],
	}, nil
}

// RandomSlot returns padding indistinguishable on the wire from a scrambled
// slice slot.
func RandomSlot(slotLen int, rng *rand.Rand) []byte {
	b := make([]byte, slotLen)
	FillRandom(b, rng)
	return b
}

// FillRandom overwrites b with padding bytes, eight per draw. A relay pads
// the whole slot area of an outgoing set-up packet with one call.
func FillRandom(b []byte, rng *rand.Rand) {
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, rng.Uint64())
	}
	if len(b) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], rng.Uint64())
		copy(b, tail[:])
	}
}
