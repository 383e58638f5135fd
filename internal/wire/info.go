package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"infoslicing/internal/slcrypto"
)

// SlotRef identifies one incoming slice slot at a relay: the parent whose
// packet carries it and the slot position inside that packet. Relays know
// their parents only as previous-hop addresses, which is exactly the
// knowledge the threat model grants them (§3a).
type SlotRef struct {
	Parent NodeID
	Slot   uint8
}

// SliceForward is one entry of the slice-map (§4.3.6, Fig. 6): take the
// slice at Src, strip one scrambling layer, and place it at slot DstSlot of
// the packet bound for child Child. Slot 0 of every outgoing packet must be
// the child's own slice; the graph builder enforces this.
type SliceForward struct {
	Child      uint8
	DstSlot    uint8
	Src        SlotRef
	Unscramble Transform
}

// DataForward is one entry of the data-map (§4.3.7): during the data phase,
// forward the data slice received from Parent to child Child. An entry whose
// Child is NoChild forwards nothing; it only names a parent. A last-stage
// block has no children, and lists its d' parents this way, so every relay
// learns its previous hops from its block (§3a grants it exactly those).
// The format is unchanged by such entries, but a relay that predates them
// knows no parent of a last-stage flow: relays and sources upgrade together.
type DataForward struct {
	Parent NodeID
	Child  uint8
}

// NoChild is the Child of a data-map entry that only names a parent.
const NoChild uint8 = 0xFF

// PerNodeInfo is Ix, the routing information the source delivers
// confidentially to relay x (§4.3.1). A relay learns nothing about the graph
// beyond this block plus the previous-hop addresses it observes.
type PerNodeInfo struct {
	Children   []NodeID              // next-hop IPs
	ChildFlows []FlowID              // flow-ids to stamp on packets per child
	Receiver   bool                  // destination flag
	Recode     bool                  // regenerate redundancy via network coding (§4.4.1)
	Spliced    bool                  // delivered by a live repair, not the original setup wave
	Key        slcrypto.SymmetricKey // per-node symmetric secret
	SliceMap   []SliceForward
	DataMap    []DataForward
}

// Clone returns a deep copy; the repair planner mutates clones so the
// graph's original infos stay immutable references.
func (pi *PerNodeInfo) Clone() *PerNodeInfo {
	cp := *pi
	cp.Children = append([]NodeID(nil), pi.Children...)
	cp.ChildFlows = append([]FlowID(nil), pi.ChildFlows...)
	cp.SliceMap = append([]SliceForward(nil), pi.SliceMap...)
	cp.DataMap = append([]DataForward(nil), pi.DataMap...)
	return &cp
}

const infoMagic = "IXSL"

// Marshal serializes the info block with a trailing CRC. The result may be
// zero-padded to any longer length before slicing; Unmarshal ignores the
// padding.
func (pi *PerNodeInfo) Marshal() []byte {
	if len(pi.Children) != len(pi.ChildFlows) {
		panic("wire: children/flows length mismatch")
	}
	n := len(pi.Children)
	size := 4 + 1 + 1 + 4*n + 8*n + slcrypto.KeySize +
		2 + 17*len(pi.SliceMap) + 2 + 5*len(pi.DataMap) + 4
	out := make([]byte, size)
	copy(out, infoMagic)
	var flags byte
	if pi.Receiver {
		flags |= 1
	}
	if pi.Recode {
		flags |= 2
	}
	if pi.Spliced {
		flags |= 4
	}
	out[4] = flags
	out[5] = uint8(n)
	off := 6
	for _, c := range pi.Children {
		binary.BigEndian.PutUint32(out[off:], uint32(c))
		off += 4
	}
	for _, f := range pi.ChildFlows {
		binary.BigEndian.PutUint64(out[off:], uint64(f))
		off += 8
	}
	copy(out[off:], pi.Key[:])
	off += slcrypto.KeySize
	binary.BigEndian.PutUint16(out[off:], uint16(len(pi.SliceMap)))
	off += 2
	for _, e := range pi.SliceMap {
		out[off] = e.Child
		out[off+1] = e.DstSlot
		binary.BigEndian.PutUint32(out[off+2:], uint32(e.Src.Parent))
		out[off+6] = e.Src.Slot
		e.Unscramble.marshal(out[off+7:])
		off += 17
	}
	binary.BigEndian.PutUint16(out[off:], uint16(len(pi.DataMap)))
	off += 2
	for _, e := range pi.DataMap {
		binary.BigEndian.PutUint32(out[off:], uint32(e.Parent))
		out[off+4] = e.Child
		off += 5
	}
	binary.BigEndian.PutUint32(out[off:], crc32.ChecksumIEEE(out[:off]))
	return out
}

// UnmarshalPerNodeInfo parses an info block, tolerating trailing padding.
func UnmarshalPerNodeInfo(b []byte) (*PerNodeInfo, error) {
	pi := new(PerNodeInfo)
	if err := UnmarshalPerNodeInfoInto(pi, b); err != nil {
		return nil, err
	}
	return pi, nil
}

// UnmarshalPerNodeInfoInto is UnmarshalPerNodeInfo into pi, reusing its
// slices: a caller that copies the block out parses every block into one
// scratch. On error pi is left partly written.
func UnmarshalPerNodeInfoInto(pi *PerNodeInfo, b []byte) error {
	if len(b) < 6 || string(b[:4]) != infoMagic {
		return ErrBadInfo
	}
	pi.Receiver, pi.Recode, pi.Spliced = b[4]&1 != 0, b[4]&2 != 0, b[4]&4 != 0
	n := int(b[5])
	off := 6
	need := func(k int) error {
		if off+k > len(b) {
			return fmt.Errorf("%w: truncated at offset %d", ErrBadInfo, off)
		}
		return nil
	}
	if err := need(4*n + 8*n + slcrypto.KeySize + 2); err != nil {
		return err
	}
	pi.Children = slices.Grow(pi.Children[:0], n)[:n]
	for i := range pi.Children {
		pi.Children[i] = NodeID(binary.BigEndian.Uint32(b[off:]))
		off += 4
	}
	pi.ChildFlows = slices.Grow(pi.ChildFlows[:0], n)[:n]
	for i := range pi.ChildFlows {
		pi.ChildFlows[i] = FlowID(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	copy(pi.Key[:], b[off:])
	off += slcrypto.KeySize
	smCount := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if err := need(17 * smCount); err != nil {
		return err
	}
	pi.SliceMap = slices.Grow(pi.SliceMap[:0], smCount)[:smCount]
	for i := range pi.SliceMap {
		pi.SliceMap[i] = SliceForward{
			Child:   b[off],
			DstSlot: b[off+1],
			Src: SlotRef{
				Parent: NodeID(binary.BigEndian.Uint32(b[off+2:])),
				Slot:   b[off+6],
			},
			Unscramble: unmarshalTransform(b[off+7:]),
		}
		off += 17
	}
	if err := need(2); err != nil {
		return err
	}
	dmCount := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if err := need(5*dmCount + 4); err != nil {
		return err
	}
	pi.DataMap = slices.Grow(pi.DataMap[:0], dmCount)[:dmCount]
	for i := range pi.DataMap {
		pi.DataMap[i] = DataForward{
			Parent: NodeID(binary.BigEndian.Uint32(b[off:])),
			Child:  b[off+4],
		}
		off += 5
	}
	want := binary.BigEndian.Uint32(b[off:])
	if crc32.ChecksumIEEE(b[:off]) != want {
		return fmt.Errorf("%w: checksum", ErrBadInfo)
	}
	return nil
}
