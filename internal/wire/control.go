// Control-plane messages for live churn repair.
//
// The data plane masks failures passively: redundant slices and in-network
// regeneration (§4.4.1) keep a round decodable while at most d'-d nodes per
// stage are down. The control plane makes the session *survive* deeper
// failures by detecting and replacing dead relays mid-flow:
//
//	detect:  parents send per-flow heartbeats to their children
//	         (MsgHeartbeat); a child that hears nothing from a parent for a
//	         liveness timeout presumes it dead.
//	report:  the child seals the dead parent's address with its own per-node
//	         key and emits a MsgParentDown toward the source along the
//	         existing ack path — each relay recognises the reporting child
//	         by its address and the flow-id it stamps on packets to that
//	         child (which the report carries), re-stamps it with its own
//	         flow-id, and forwards it to its parents. Intermediate relays
//	         learn nothing from the report body (it is sealed); the clear
//	         nonce exists only so the flood can be deduplicated.
//	splice:  the source (which knows the whole graph) picks a replacement,
//	         computes the minimal re-keyed sub-graph (core.Graph.Splice),
//	         delivers the replacement's routing block as d'-of-d sliced
//	         MsgSetup packets from the source endpoints, and patches each
//	         surviving neighbor with a MsgSplice carrying its updated info
//	         block sealed under the key that neighbor already shares with
//	         the source — so a splice cannot be forged by anyone else.
//
// All three messages reuse the standard packet frame: heartbeats are
// header-only, reports and splices carry one variable-length slot with no
// per-slot CRC (the report/patch bodies authenticate themselves via the
// sealing HMAC; a CRC would only help an observer).
package wire

import "encoding/binary"

// downNonceLen prefixes every ParentDown payload: a clear 64-bit nonce that
// lets relays and the source deduplicate the report flood without being able
// to read the sealed body.
const downNonceLen = 8

// downReportLen is the sealed plaintext of a ParentDown report: the dead
// parent's address.
const downReportLen = 4

// AppendHeartbeat appends a header-only keepalive for the given flow.
func AppendHeartbeat(dst []byte, flow FlowID) []byte {
	return AppendPacketHeader(dst, MsgHeartbeat, flow, 0, 0, 0, 0)
}

// AppendParentDown appends a parent-down report: nonce ‖ sealed, framed as a
// single slot. The sealed body is opaque to every relay on the way up.
func AppendParentDown(dst []byte, flow FlowID, nonce uint64, sealed []byte) []byte {
	dst = AppendPacketHeader(dst, MsgParentDown, flow, 0, 0,
		uint16(downNonceLen+len(sealed)), 1)
	dst = binary.BigEndian.AppendUint64(dst, nonce)
	return append(dst, sealed...)
}

// ParseParentDown splits a parsed MsgParentDown packet into its dedup nonce
// and sealed report body. The sealed bytes are a view into the packet.
func ParseParentDown(p *Packet) (nonce uint64, sealed []byte, err error) {
	if p.Type != MsgParentDown || len(p.Slots) != 1 || len(p.Slots[0]) < downNonceLen {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint64(p.Slots[0]), p.Slots[0][downNonceLen:], nil
}

// MarshalDownReport encodes the plaintext of a ParentDown report (sealed by
// the reporter before transmission).
func MarshalDownReport(dead NodeID) []byte {
	var b [downReportLen]byte
	binary.BigEndian.PutUint32(b[:], uint32(dead))
	return b[:]
}

// UnmarshalDownReport decodes an opened ParentDown report body.
func UnmarshalDownReport(b []byte) (NodeID, error) {
	if len(b) != downReportLen {
		return 0, ErrBadInfo
	}
	return NodeID(binary.BigEndian.Uint32(b)), nil
}

// AppendSplice appends a splice patch for the given flow: one slot holding
// the target's updated info block, sealed under the symmetric key the target
// already shares with the source. Only the target can open it, and only the
// source could have sealed it.
func AppendSplice(dst []byte, flow FlowID, sealed []byte) []byte {
	dst = AppendPacketHeader(dst, MsgSplice, flow, 0, 0, uint16(len(sealed)), 1)
	return append(dst, sealed...)
}

// ParseSplice returns the sealed patch body of a parsed MsgSplice packet as
// a view into the packet.
func ParseSplice(p *Packet) ([]byte, error) {
	if p.Type != MsgSplice || len(p.Slots) != 1 || len(p.Slots[0]) == 0 {
		return nil, ErrTruncated
	}
	return p.Slots[0], nil
}
