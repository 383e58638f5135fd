package relay

import (
	"fmt"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// The flight recorder (DESIGN.md, "Flight recorder"): each shard keeps its
// flows' last flowEventCap lifecycle events in a ring its worker alone
// writes, recording each where the matching counter is bumped; nothing is
// recorded per packet or per forwarded round.
const flowEventCap = 1024

// EventKind says what happened to a flow; Arg's meaning depends on it.
type EventKind uint8

const (
	EvAdmit        EventKind = iota + 1 // Arg: the tenant (previous hop) that created the flow
	EvReject                            // Arg: RejectMaxFlows or RejectTenantQuota
	EvEstablish                         // Arg: the children the routing block names
	EvSplice                            // Arg: the applied splice's sequence number
	EvParentDown                        // Arg: the parent reported dead
	EvRoundExpired                      // Arg: the round written off unfinished
	EvEvict                             // Arg: the flow's last activity, a stamp
	EvGapSkip                           // Arg: the rounds a receiver's stream skipped
	EvTailShed                          // the flow came to rest
)

// Why admission refused a flow (EvReject's Arg).
const RejectMaxFlows, RejectTenantQuota = 1, 2

var eventNames = [...]string{
	EvAdmit: "admit from", EvReject: "reject reason", EvEstablish: "establish kids",
	EvSplice: "splice seq", EvParentDown: "parent_down parent", EvRoundExpired: "round_expired round",
	EvEvict: "evict last", EvGapSkip: "gap_skip rounds", EvTailShed: "tail_shed",
}

// FlowEvent is one recorded event; it holds only what the relay knew.
type FlowEvent struct {
	At   int64 // a stamp (Node.stamp)
	Flow wire.FlowID
	Arg  uint64
	Kind EventKind
}

// String renders the event as "t=stamp kind arg=value".
func (e FlowEvent) String() string {
	switch e.Kind {
	case EvTailShed:
		return fmt.Sprintf("t=%d %s", e.At, eventNames[e.Kind])
	case EvReject:
		return fmt.Sprintf("t=%d %s=%s", e.At, eventNames[e.Kind], [...]string{"", "max_flows", "tenant_quota"}[e.Arg])
	}
	return fmt.Sprintf("t=%d %s=%d", e.At, eventNames[e.Kind], e.Arg)
}

// note records an event of flow f, stamped with the shard's current step or
// tick. Only the worker calls it.
func (sh *shard) note(kind EventKind, f wire.FlowID, arg uint64) {
	sh.events.Push(FlowEvent{At: sh.now, Flow: f, Arg: arg, Kind: kind})
}

// FlowEvents returns flow f's events still in its shard's ring, oldest first.
func (n *Node) FlowEvents(f wire.FlowID) (out []FlowEvent) {
	sh := n.shardFor(f)
	sh.do(func() {
		for e := range sh.events.All() {
			if e.Flow == f {
				out = append(out, e)
			}
		}
	})
	return out
}

// establishedSignal returns the channel the node's next establishment
// closes, making it if no waiter has.
func (n *Node) establishedSignal() <-chan struct{} {
	for {
		if p := n.estSig.Load(); p != nil {
			return *p
		}
		if ch := make(chan struct{}); n.estSig.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// flowEstablished records fs's establishment and wakes the node's waiters;
// with none, it costs one load beside the record.
func (n *Node) flowEstablished(sh *shard, fs *flowState) {
	sh.note(EvEstablish, fs.flow, uint64(fs.route.nKids))
	if n.estSig.Load() != nil {
		if p := n.estSig.Swap(nil); p != nil {
			close(*p)
		}
	}
}

// AwaitEstablished waits, at most max on clk, until nodes[i] has established
// flows[i] for every i, and reports whether they all did. It asks a node
// again only after the node's establish signal has fired. On the wall clock
// it blocks; on a *simnet.VirtualClock it drives the clock (AwaitCond), so
// only the clock's driver may call it there.
func AwaitEstablished(clk simnet.Clock, max time.Duration, nodes []*Node, flows []wire.FlowID) bool {
	i, sig := 0, (<-chan struct{})(nil)
	ready := func() bool { // moves i past the nodes that have established
		for ; i < len(nodes); i, sig = i+1, nil {
			if sig != nil {
				select {
				case <-sig:
				default:
					return false // no establishment since the last look
				}
			}
			if sig = nodes[i].establishedSignal(); !nodes[i].Established(flows[i]) {
				return false
			}
		}
		return true
	}
	if vc, ok := clk.(*simnet.VirtualClock); ok {
		return vc.AwaitCond(max, ready)
	}
	timeout := time.NewTimer(max)
	defer timeout.Stop()
	for !ready() {
		select {
		case <-sig:
		case <-timeout.C:
			return ready()
		}
	}
	return true
}
