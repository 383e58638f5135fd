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
// sender. Senders that claim ids outside the book and speak into a
// last-stage relay's live flow become its observed hops, so its ParentDown
// reports name them; those sends are dropped and counted unroutable, and no
// peer is made for the claimed ids.
func TestAdversaryFlood(t *testing.T) {
	simnet.ReportSeed(t)
	const (
		attacker = wire.NodeID(666)
		flood    = 2000
		msgs     = 16
	)
	forged := func(i int) wire.FlowID { return wire.FlowID(0xbad0_0000_0000 + uint64(i)) }
	spoofed := func(i int) wire.NodeID { return wire.NodeID(10_000 + i) }
	const heartbeat = 20 * time.Millisecond
	cases := []struct {
		name, counter string
		maxFlows      int
		// packet is forged packet i; live is the victim's flow-id in the
		// honest flow.
		packet func(i int, live wire.FlowID) []byte
		spoof  bool // packet i claims sender spoofed(i), not the attacker
		// leaf makes the victim a last-stage relay of the honest flow, run
		// with the control plane on: it monitors its observed hops and
		// reports the silent ones to every hop it has.
		leaf bool
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
		{name: "heartbeats into a live flow from ids outside the book", counter: "parent_down_sent",
			packet: func(_ int, live wire.FlowID) []byte { return wire.AppendHeartbeat(nil, live) },
			spoof:  true, leaf: true},
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
					if tc.leaf {
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
				// steady waits until read stops moving over two liveness
				// timeouts of the leaf row's control plane.
				steady := func(read func() int64) bool {
					return simnet.Eventually(10*time.Second, time.Millisecond, func() bool {
						n := read()
						time.Sleep(2 * livenessBeats * heartbeat)
						return read() == n
					})
				}
				goroutines := func() int64 { return int64(runtime.NumGoroutine()) }
				if tc.leaf {
					// Every id in the book gets its peer and connection
					// first (a runt each relay counts and each source
					// ignores), so a peer made from here on is for a
					// claimed id.
					for _, id := range append(relays, srcs...) {
						tr.Send(attacker, id, nil)
					}
					if !steady(goroutines) {
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
				if tc.leaf {
					// Each observed hop is reported obsReportLimit times,
					// one liveness timeout apart, then forgotten: wait for
					// the reports to stop before counting goroutines.
					if !steady(func() int64 { return victim.Counters().Get(tc.counter) }) {
						t.Fatalf("%s never stopped moving", tc.counter)
					}
					if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
						return goroutines() <= running
					}) {
						t.Fatalf("%d goroutines after the reports, %d before the flood: a peer was made for a claimed id", runtime.NumGoroutine(), running)
					}
					if tr.Counters().Get("unroutable") == 0 {
						t.Fatal("no report toward a claimed id was counted unroutable")
					}
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
