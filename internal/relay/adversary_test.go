package relay

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// TestAdversaryFlood floods one stage-1 relay of an established honest flow
// with what a stranger on an open overlay may send it, over real loopback
// sockets: the attacker is an endpoint of the same network and every forged
// packet goes through its Send, so the flood rides the peer queue and the
// socket like honest traffic. Whatever the flood, the honest L=2, d=2, d'=3
// flow delivers every message in order, the counter that names the flood's
// drop moves, every relay's books balance, and after Close no goroutine and
// no egress slab is left behind. A flood whose every packet claims a sender
// of its own, as a per-sender quota would let pass, meets the same node-wide
// MaxFlows bound, and the victim records each refusal under its claimed
// sender. Senders that claim ids outside the book and speak into a live
// flow — a last-stage relay's or a stage-1 relay's, with the control plane
// on — get no record in it: their heartbeats count as unmatched, the victim
// reports no parent on their account and names no id outside the graph, and
// its acks and reports, its own and those it forwards for a child, go to
// its parents alone, so nothing is sent toward a claimed id (unroutable
// stays 0) and no peer is made for one.
func TestAdversaryFlood(t *testing.T) {
	simnet.ReportSeed(t)
	const (
		attacker = wire.NodeID(666)
		flood    = 2000
		msgs     = 16
	)
	forged := func(i int) wire.FlowID { return wire.FlowID(0xbad0_0000_0000 + uint64(i)) }
	spoofed := func(i int) wire.NodeID { return wire.NodeID(10_000 + i) }
	const heartbeat = 50 * time.Millisecond
	cases := []struct {
		name, counter string
		maxFlows      int
		// packet is forged packet i; live is the victim's flow-id in the
		// honest flow.
		packet func(i int, live wire.FlowID) []byte
		spoof  bool // packet i claims sender spoofed(i), not the attacker
		// control runs every relay with the control plane on: the victim
		// monitors its parents and reports the silent ones upstream. leaf
		// makes the victim a last-stage relay of the honest flow; otherwise
		// it is a stage-1 relay, and after the flood one of its children
		// reports a parent down through it.
		control, leaf bool
	}{
		{name: "heartbeats for absent flows", counter: "unmatched",
			packet: func(i int, _ wire.FlowID) []byte { return wire.AppendHeartbeat(nil, forged(i)) }},
		{name: "splices for absent flows", counter: "unmatched",
			packet: func(i int, _ wire.FlowID) []byte { return wire.AppendSplice(nil, forged(i), make([]byte, 64)) }},
		// The honest flow holds one of the four slots on every relay.
		{name: "data under fresh flow-ids", counter: "flows_rejected", maxFlows: 4,
			packet: func(i int, _ wire.FlowID) []byte { return junkDataFrame(forged(i)) }},
		{name: "data under fresh flow-ids from spoofed senders", counter: "flows_rejected", maxFlows: 4,
			packet: func(i int, _ wire.FlowID) []byte { return junkDataFrame(forged(i)) }, spoof: true},
		{name: "acks from a sender no flow lists", counter: "filter_misses",
			packet: func(i int, _ wire.FlowID) []byte {
				return wire.AppendPacketHeader(nil, wire.MsgAck, forged(i), 0, 0, 0, 0)
			}},
		{name: "heartbeats into a live flow from ids outside the book", counter: "unmatched",
			packet: func(_ int, live wire.FlowID) []byte { return wire.AppendHeartbeat(nil, live) },
			spoof:  true, control: true, leaf: true},
		{name: "heartbeats into a live stage-1 flow from ids outside the book", counter: "unmatched",
			packet: func(_ int, live wire.FlowID) []byte { return wire.AppendHeartbeat(nil, live) },
			spoof:  true, control: true},
	}
	nets := []struct {
		name string
		make func() *overlay.Static
	}{
		{"tcp", overlay.NewTCPNetwork},
		{"udp", func() *overlay.Static { return overlay.NewUDPNetwork(overlay.UDPOptions{}) }},
	}
	for _, nw := range nets {
		for _, tc := range cases {
			t.Run(nw.name+"/"+tc.name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				tr := nw.make()
				relays := []wire.NodeID{1, 2, 3, 4, 5, 6}
				srcs := []wire.NodeID{101, 102, 103}
				nodes := make([]*Node, len(relays))
				for i, id := range relays {
					cfg := Config{MaxFlows: tc.maxFlows, Rng: rand.New(rand.NewSource(int64(id)))}
					if tc.control {
						cfg.Heartbeat = heartbeat
					}
					n, err := New(id, tr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					nodes[i] = n
				}
				closeAll := func() {
					for _, n := range nodes {
						n.Close()
					}
					tr.Close()
				}
				defer func() {
					if nodes != nil {
						closeAll()
					}
				}()
				eps, err := source.AttachEndpoints(tr, srcs)
				if err != nil {
					t.Fatal(err)
				}
				g, err := core.Build(core.Spec{L: 2, D: 2, DPrime: 3, Relays: relays, Dest: relays[5],
					Sources: srcs, Recode: true, Scramble: true, Rng: rand.New(rand.NewSource(7))})
				if err != nil {
					t.Fatal(err)
				}
				snd := source.New(tr, g, source.Config{}, rand.New(rand.NewSource(8)))
				if err := snd.EstablishAndWait(eps, 10*time.Second); err != nil {
					t.Fatal(err)
				}
				victimID := g.Stages[0][0]
				if tc.leaf {
					victimID = g.Stages[len(g.Stages)-1][0]
				}
				var victim, dest *Node
				for _, n := range nodes {
					if n.ID() == victimID {
						victim = n
					}
					if n.ID() == g.Dest {
						dest = n
					}
				}
				if err := tr.Attach(attacker, func(wire.NodeID, []byte) {}); err != nil {
					t.Fatal(err)
				}
				goroutines := func() int64 { return int64(runtime.NumGoroutine()) }
				if tc.control {
					// Every id in the book gets its peer and connection
					// first (a runt each relay counts and each source
					// ignores), so a peer made from here on is for a
					// claimed id.
					for _, id := range append(relays, srcs...) {
						tr.Send(attacker, id, nil)
					}
					if !simnet.Eventually(10*time.Second, time.Millisecond, func() bool {
						n := goroutines()
						time.Sleep(2 * heartbeat) // the connections' goroutines start on their own
						return goroutines() == n
					}) {
						t.Fatal("goroutines never settled after the peers were made")
					}
				}
				running, live := goroutines(), g.Flows[victim.ID()]
				flooded := make(chan struct{})
				go func() {
					defer close(flooded)
					for i := range flood {
						from := attacker
						if tc.spoof {
							from = spoofed(i)
						}
						tr.Send(from, victim.ID(), tc.packet(i, live)) // a full peer queue drops: still a flood
					}
				}()
				for m := range msgs {
					if err := snd.Send(bytes.Repeat([]byte{byte(m + 1)}, 900)); err != nil {
						t.Fatal(err)
					}
				}
				for m := range msgs {
					select {
					case got := <-dest.Received():
						if !bytes.Equal(got.Data, bytes.Repeat([]byte{byte(m + 1)}, 900)) {
							t.Fatalf("message %d out of order or corrupted", m)
						}
					case <-time.After(15 * time.Second):
						t.Fatalf("message %d never delivered", m)
					}
				}
				<-flooded
				if !simnet.Eventually(10*time.Second, time.Millisecond, func() bool {
					return victim.Counters().Get(tc.counter) > 0
				}) {
					t.Fatalf("%s did not move under the flood", tc.counter)
				}
				t.Logf("%s = %d of %d forged packets", tc.counter, victim.Counters().Get(tc.counter), flood)
				if tc.control && !tc.leaf {
					// A stage-2 child reports a parent down; the victim
					// forwards it to its own parents, the source endpoints.
					// The flood may still fill the peer queue to the victim,
					// which drops what it cannot hold: the child sends again
					// until a copy is forwarded, and the victim drops the
					// later ones by their nonce.
					child := g.Stages[1][0]
					report := wire.AppendParentDown(nil, g.Flows[child], 777, []byte("sealed by the child"))
					if !simnet.Eventually(10*time.Second, 5*time.Millisecond, func() bool {
						tr.Send(child, victim.ID(), report)
						return victim.Counters().Get("parent_down_forwarded") > 0
					}) {
						t.Fatal("the child's report was not forwarded")
					}
				}
				if tc.control {
					if tc.leaf {
						// The leaf's liveness sweep runs on the wall clock, as
						// its sockets do: past one liveness timeout after the
						// flood, a stranger it kept a record of would have
						// been reported.
						time.Sleep((livenessBeats + 1) * heartbeat)
					}
					inGraph := map[wire.NodeID]bool{}
					for _, id := range append(relays, srcs...) {
						inGraph[id] = true
					}
					for _, e := range victim.FlowEvents(live) {
						if e.Kind == EvParentDown && !inGraph[wire.NodeID(e.Arg)] {
							t.Fatalf("the victim reported %d down, an id outside the graph", e.Arg)
						}
					}
					// The leaf's parents heartbeat to it throughout.
					if got := victim.Counters().Get("parent_down_sent"); tc.leaf && got != 0 {
						t.Fatalf("parent_down_sent = %d under the flood, want 0", got)
					}
					if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
						return goroutines() <= running
					}) {
						t.Fatalf("%d goroutines after the flood, %d before it: a peer was made for a claimed id", runtime.NumGoroutine(), running)
					}
				}
				if got := tr.Counters().Get("unroutable"); got != 0 {
					t.Fatalf("unroutable = %d: the relays sent toward an id outside the book", got)
				}
				if tc.counter == "flows_rejected" && tc.spoof {
					// The latest refusal still in the recorder names the
					// sender its packet claimed.
					refused := false
					for i := flood - 1; i >= 0 && !refused; i-- {
						for _, e := range victim.FlowEvents(forged(i)) {
							if e.Kind != EvReject {
								continue
							}
							if want := fmt.Sprintf(" reject from=%d", spoofed(i)); !strings.HasSuffix(e.String(), want) {
								t.Fatalf("refused flow %#x recorded %q, want%s", forged(i), e, want)
							}
							refused = true
						}
					}
					if !refused {
						t.Fatal("no refused flow in the victim's recorder")
					}
				}
				checkBooks(t, nodes...)
				if got := victim.FlowTableSize(); tc.maxFlows > 0 && got > tc.maxFlows {
					t.Fatalf("victim holds %d flows past MaxFlows %d", got, tc.maxFlows)
				}

				eps.Close()
				closeAll()
				for _, n := range nodes {
					if got := n.egPool.Outstanding(); got != 0 {
						t.Errorf("relay %d: %d egress slabs outstanding after Close", n.ID(), got)
					}
				}
				nodes = nil
				if !simnet.Eventually(10*time.Second, time.Millisecond, func() bool {
					return runtime.NumGoroutine() <= baseline
				}) {
					t.Fatalf("%d goroutines after Close, %d before the network", runtime.NumGoroutine(), baseline)
				}
			})
		}
	}
}
