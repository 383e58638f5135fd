package relay

import (
	"encoding/binary"
	"time"

	"infoslicing/internal/wire"
)

// Control plane: failure detection, ParentDown reporting, and splice
// acceptance (see DESIGN.md, "The live churn control plane"). Everything
// here runs either on a shard worker or on the control loop holding the
// shard lock, so the single-writer-per-shard discipline (buffer-ownership
// rule 6) is preserved.

// seenReportsCap bounds the per-flow nonce dedup set; when it fills, the
// set is reset wholesale. A re-forwarded duplicate after a reset is
// harmless (the source dedupes by nonce too) — unbounded relay state is
// not (§9.2).
const seenReportsCap = 512

// controlSweep is the node's heartbeat/liveness driver, scheduled as a
// periodic clock task (every Config.Heartbeat) only when the control plane
// is on. Each sweep walks every shard under its lock: established flows
// with children get one keepalive per child, and — when LivenessTimeout is
// set — parents that have been silent too long are reported toward the
// source. Detection never alters round forwarding (deadParents stays
// round-driven), so enabling the control plane does not change what the
// data path delivers; it only adds the repair signal.
func (n *Node) controlSweep() {
	select {
	case <-n.done:
		return
	default:
	}
	now := n.clk.Now()
	for _, sh := range n.shards {
		sh.mu.Lock()
		for f, fs := range sh.flows {
			if fs.info == nil {
				continue
			}
			n.sendHeartbeatsLocked(sh, fs)
			if n.cfg.LivenessTimeout > 0 {
				n.checkParentsLocked(sh, f, fs, now)
			}
		}
		sh.mu.Unlock()
	}
}

// sendHeartbeatsLocked emits one keepalive per child, stamped with the
// child's flow-id (the only identity this node holds for it). Runs with
// sh.mu held.
func (n *Node) sendHeartbeatsLocked(sh *shard, fs *flowState) {
	pi := fs.info
	for c, ch := range pi.Children {
		sh.pktBuf = wire.AppendHeartbeat(sh.pktBuf[:0], pi.ChildFlows[c])
		sh.stats.HeartbeatsOut++
		n.sendLocked(sh, ch, sh.pktBuf)
	}
}

// obsReportLimit caps how often a leaf flow reports an observation-only
// parent before forgetting it: a last-stage node knows its parents only by
// observation, so once the source has spliced the dead node out nothing
// ever tells the leaf to stop — after this many reports it drops the
// address and the chatter ends (the node is re-adopted the moment it speaks
// again).
const obsReportLimit = 3

// checkParentsLocked flags parents that have been silent for longer than
// LivenessTimeout and (re-)emits a ParentDown report for each, at most once
// per timeout while the silence lasts. A parent that speaks again — data or
// heartbeat — clears its pending-report state.
//
// The monitored set is the map-derived parents when the flow has any; a
// last-stage flow has an empty slice-/data-map, so — exactly as for acks —
// its observed previous hops stand in, with the obsReportLimit forgetting
// rule above. Runs with sh.mu held.
func (n *Node) checkParentsLocked(sh *shard, f wire.FlowID, fs *flowState, now time.Time) {
	monitored := fs.parents
	obsOnly := false
	if len(monitored) == 0 {
		monitored = fs.seen
		obsOnly = true
	}
	for p := range monitored {
		last, ok := fs.lastHeard[p]
		if !ok {
			// Never heard (shouldn't happen: liveness is seeded at decode);
			// start the clock now rather than reporting blind.
			fs.lastHeard[p] = now
			continue
		}
		if now.Sub(last) <= n.cfg.LivenessTimeout {
			if fs.downSince != nil {
				delete(fs.downSince, p)
				delete(fs.downCount, p)
			}
			continue
		}
		if fs.downSince == nil {
			fs.downSince = make(map[wire.NodeID]time.Time)
		}
		if since, reported := fs.downSince[p]; reported && now.Sub(since) < n.cfg.LivenessTimeout {
			continue
		}
		fs.downSince[p] = now
		n.sendParentDownLocked(sh, f, fs, p)
		if obsOnly {
			if fs.downCount == nil {
				fs.downCount = make(map[wire.NodeID]int)
			}
			fs.downCount[p]++
			if fs.downCount[p] >= obsReportLimit {
				delete(fs.seen, p)
				delete(fs.lastHeard, p)
				delete(fs.downSince, p)
				delete(fs.downCount, p)
			}
		}
	}
}

// sendParentDownLocked originates a report that parent `dead` has gone
// quiet on this flow. The body — just the dead node's address — is sealed
// under this node's per-node key, so only the source can read it and only
// this node (or the source) could have produced it; the clear nonce exists
// solely for dedup along the multipath flood toward the source. Runs with
// sh.mu held.
func (n *Node) sendParentDownLocked(sh *shard, f wire.FlowID, fs *flowState, dead wire.NodeID) {
	sealed, err := fs.info.Key.Seal(sh.rng, wire.MarshalDownReport(dead))
	if err != nil {
		return
	}
	nonce := sh.rng.Uint64()
	fs.rememberReport(nonce)
	sh.pktBuf = wire.AppendParentDown(sh.pktBuf[:0], f, nonce, sealed)
	n.floodUpstreamLocked(sh, fs, sh.pktBuf)
	sh.stats.ParentDownSent++
}

// handleParentDown forwards a child's report one hop toward the source.
// Exactly like acks, the report arrives stamped with the *child's* flow-id,
// which this node cannot map; it matches by the sender's address instead,
// locating every flow on this shard that lists the sender among its
// children, re-stamping the report with its own flow-id, and flooding it to
// its parents. The sealed body is opaque and copied verbatim. Runs with
// sh.mu held; every shard sees every report.
func (n *Node) handleParentDown(sh *shard, from wire.NodeID, pkt *wire.Packet) {
	nonce, sealed, err := wire.ParseParentDown(pkt)
	if err != nil {
		return
	}
	for flow, fs := range sh.byChild[from] {
		if fs.info == nil || fs.seenReports[nonce] {
			continue
		}
		fs.rememberReport(nonce)
		sh.pktBuf = wire.AppendParentDown(sh.pktBuf[:0], flow, nonce, sealed)
		n.floodUpstreamLocked(sh, fs, sh.pktBuf)
		sh.stats.ParentDownForwarded++
	}
}

// floodUpstreamLocked sends buf to every parent named in the maps plus every
// observed previous hop — the same target set the establishment ack uses.
// Sends to currently-dead nodes are dropped by the transport; redundancy
// across the surviving parents is what carries the report. Runs with sh.mu
// held; buf must be fully framed (it is sh.pktBuf in every caller).
func (n *Node) floodUpstreamLocked(sh *shard, fs *flowState, buf []byte) {
	for p := range sh.ackTargetsLocked(fs) {
		n.sendLocked(sh, p, buf)
	}
}

func (fs *flowState) rememberReport(nonce uint64) {
	if fs.seenReports == nil || len(fs.seenReports) >= seenReportsCap {
		fs.seenReports = make(map[uint64]bool)
	}
	fs.seenReports[nonce] = true
}

// handleSplice applies a repair patch to an established flow: the slot body
// must open under the flow's per-node key (only the source holds it, so a
// valid seal *is* the authentication) and parse as seq ‖ routing block. The
// sequence number — stamped by the source per repair — makes application
// idempotent and order-safe: two consecutive repairs' patches can arrive
// reordered (every packet rides its own emulated link delay), and only a
// patch newer than the last applied one wins. The new info replaces the old
// one atomically under the shard lock; parents that the patch swaps in
// start with a fresh liveness grace so they are not instantly re-reported,
// and liveness state for parents the patch removed is dropped. In-flight
// rounds are untouched — slices already queued from surviving parents keep
// flowing, which is the point of splicing instead of rebuilding. Runs on
// the shard worker with sh.mu held.
func (n *Node) handleSplice(sh *shard, fs *flowState, pkt *wire.Packet) {
	if fs.info == nil {
		return // splices only patch established flows
	}
	sealed, err := wire.ParseSplice(pkt)
	if err != nil {
		return
	}
	plain, err := fs.info.Key.Open(sealed)
	if err != nil {
		return // forged or corrupted: drop silently
	}
	if len(plain) < 8 {
		return
	}
	seq := binary.BigEndian.Uint64(plain)
	if seq <= fs.spliceSeq {
		return // stale or duplicate repair: the newer routing state stands
	}
	pi, err := wire.UnmarshalPerNodeInfo(plain[8:])
	if err != nil {
		return
	}
	fs.spliceSeq = seq
	// The patch may add or remove children: swap the child-directory refs
	// with the info block so sender-addressed acks and reports keep
	// routing to this shard (table.go).
	n.dirDelLocked(sh, fs, fs.info)
	fs.info = pi
	fs.opener = nil // keyed to the old block
	n.dirAddLocked(sh, fs, pi)
	now := n.clk.Now()
	newParents := parentSet(pi)
	for p := range newParents {
		if !fs.parents[p] {
			fs.lastHeard[p] = now
			delete(fs.missStreak, p)
		}
	}
	for p := range fs.parents {
		if !newParents[p] {
			delete(fs.lastHeard, p)
			delete(fs.downSince, p)
			delete(fs.downCount, p)
			delete(fs.missStreak, p)
		}
	}
	fs.parents = newParents
	sh.stats.SplicesApplied++
}
