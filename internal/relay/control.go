package relay

import (
	"encoding/binary"
	"slices"

	"infoslicing/internal/wire"
)

// Control plane: failure detection, ParentDown reporting, and splice
// acceptance (see DESIGN.md, "The live churn control plane"). It all runs
// inside a shard's step or tick, the sweep at the shard's heartbeat instants,
// so one owner per shard holds (rule 6) and every frame leaves by egress.

// reportWindow is how many recent ParentDown nonces a flow remembers, the
// oldest forgotten first, to dedup the multipath flood toward the source.
// Each flow keeps its own, so a child flooding fresh nonces pushes out only
// its flow's. A report's copies arrive once per forwarding child; between a
// first and a last copy one flow remembered at most 6 reports
// (TestRepairStressEveryFlowLosesRelays). A duplicate re-forwarded once
// forgotten is harmless (the source dedupes by nonce too) — unbounded relay
// state is not (§9.2).
const reportWindow = 8

// controlSweep is the heartbeat/liveness sweep a shard's tick runs every
// Config.Heartbeat: an established flow frames one keepalive per child and
// reports parents silent for livenessBeats heartbeats toward the source.
// Detection never alters round forwarding
// (deadParents stays round-driven), so enabling the control plane does not
// change what the data path delivers; it only adds the repair signal.
func (n *Node) controlSweep(sh *shard, now int64) {
	for _, fs := range sh.flows {
		if !fs.has(routeUp) {
			continue
		}
		kids, flows := fs.kids()
		for c, child := range kids {
			sh.batchFrame(child, wire.AppendHeartbeat(n.claim(sh, wire.HeaderLen)[:0], flows[c]))
			sh.ctr[cHeartbeatsOut]++
		}
		fs.sweepHops(now, livenessBeats*int64(n.cfg.Heartbeat), func(dead wire.NodeID) {
			n.sendParentDown(sh, fs, dead)
		})
	}
}

// sendParentDown originates a report that parent `dead` has gone
// quiet on this flow. The body — just the dead node's address — is sealed
// under this node's per-node key, so only the source can read it and only
// this node (or the source) could have produced it; the clear nonce exists
// solely for dedup along the multipath flood toward the source.
func (n *Node) sendParentDown(sh *shard, fs *flowState, dead wire.NodeID) {
	sealed, err := fs.route.key.Seal(sh.rng, wire.MarshalDownReport(dead))
	if err != nil {
		return
	}
	nonce := sh.rng.Uint64()
	fs.rememberReport(nonce)
	n.floodReport(sh, fs, nonce, sealed)
	sh.ctr[cParentDownSent]++
	sh.note(EvParentDown, fs.flow, uint64(dead))
}

// floodUpstream files one frame under every parent the flow's routing block
// names — the target set of acks and reports alike. Sends to currently-dead
// nodes are dropped by the transport; redundancy across the surviving parents
// is what carries the packet. The parents share the frame's bytes: the
// transport only reads them.
func (sh *shard) floodUpstream(fs *flowState, frame []byte) {
	for _, h := range fs.hops() {
		sh.batchFrame(h.id, frame)
	}
}

// floodReport frames a ParentDown report stamped with this node's flow-id and
// floods it upstream.
func (n *Node) floodReport(sh *shard, fs *flowState, nonce uint64, sealed []byte) {
	frame := n.claim(sh, wire.HeaderLen+8+len(sealed)) // header, nonce, sealed body
	sh.floodUpstream(fs, wire.AppendParentDown(frame[:0], fs.flow, nonce, sealed))
}

// rememberReport puts nonce's low 32 bits in the flow's report window over
// its oldest. A random nonce matches a window by chance with probability
// reportWindow·2⁻³² (an unwritten slot holds 0), and a report dropped so
// still travels the flood's other paths; forging a match takes the nonce.
func (fs *flowState) rememberReport(nonce uint64) {
	fs.reports[fs.reportAt] = uint32(nonce)
	fs.reportAt = (fs.reportAt + 1) % reportWindow
}

// handleSplice applies a repair patch to an established flow and reports
// whether it did: the slot body
// must open under the flow's per-node key (only the source holds it, so a
// valid seal *is* the authentication) and parse as seq ‖ routing block. The
// sequence number — stamped by the source per repair — makes application
// idempotent and order-safe: two consecutive repairs' patches can arrive
// reordered (every packet rides its own emulated link delay), and only a
// patch newer than the last applied one wins. The new info replaces the old
// one between two packets; parents that the patch swaps in
// start with a fresh liveness grace so they are not instantly re-reported,
// and the records of parents the patch removed are dropped. In-flight
// rounds are untouched — slices already queued from surviving parents keep
// flowing, which is the point of splicing instead of rebuilding.
func (n *Node) handleSplice(sh *shard, fs *flowState, pkt *wire.Packet) bool {
	if !fs.has(routeUp) {
		return false // splices only patch established flows
	}
	sealed, err := wire.ParseSplice(pkt)
	if err != nil {
		return false
	}
	plain, err := fs.route.key.Open(sealed)
	if err != nil || len(plain) < 8 {
		return false // forged or corrupted
	}
	seq := binary.BigEndian.Uint64(plain)
	if seq <= fs.spliceSeq {
		return false // stale or duplicate repair: the newer routing state stands
	}
	pi := &sh.info
	if wire.UnmarshalPerNodeInfoInto(pi, plain[8:]) != nil {
		return false
	}
	fs.spliceSeq = seq
	// The patch may add, remove or re-key children: swap the flow's index
	// keys and directory counts with the route, so the replacement's acks and
	// reports find this flow and the old child's no longer do (table.go).
	n.dirDel(sh, fs)
	fs.setRoute(pi)
	if t := fs.tail; t != nil {
		t.rx.opener = nil // keyed to the old block
		if fs.staging() {
			t.stage.sliceMap = append(t.stage.sliceMap[:0], pi.SliceMap...) // a wave not yet sent goes the new way
		}
	}
	n.dirAdd(sh, fs)
	fs.declareParents(pi, fs.lastActive)
	return true
}

// handleUpstream moves an establishment ack or a ParentDown report from a
// child one hop toward the source, for the one flow the exact-match index
// found: re-stamped with this node's own flow-id (a report's sealed body is
// opaque and copied verbatim) and flooded upstream.
func (n *Node) handleUpstream(sh *shard, fs *flowState, pkt *wire.Packet) {
	if pkt.Type == wire.MsgAck {
		if !fs.ackSent {
			n.sendAck(sh, fs)
		}
		return
	}
	nonce, sealed, err := wire.ParseParentDown(pkt)
	if err != nil || slices.Contains(fs.reports[:], uint32(nonce)) {
		return
	}
	fs.rememberReport(nonce)
	n.floodReport(sh, fs, nonce, sealed)
	sh.ctr[cParentDownForwarded]++
}
