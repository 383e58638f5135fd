package relay

import (
	"bytes"
	"math/rand"
	"runtime"
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
// no egress slab is left behind.
func TestAdversaryFlood(t *testing.T) {
	simnet.ReportSeed(t)
	const (
		attacker = wire.NodeID(666)
		flood    = 2000
		msgs     = 16
	)
	forged := func(i int) wire.FlowID { return wire.FlowID(0xbad0_0000_0000 + uint64(i)) }
	cases := []struct {
		name, counter string
		maxFlows      int
		packet        func(i int) []byte
	}{
		{name: "heartbeats for absent flows", counter: "unmatched",
			packet: func(i int) []byte { return wire.AppendHeartbeat(nil, forged(i)) }},
		{name: "splices for absent flows", counter: "unmatched",
			packet: func(i int) []byte { return wire.AppendSplice(nil, forged(i), make([]byte, 64)) }},
		// The honest flow holds one of the four slots on every relay.
		{name: "data under fresh flow-ids", counter: "flows_rejected", maxFlows: 4,
			packet: func(i int) []byte { return junkDataFrame(forged(i)) }},
		{name: "acks from a sender no flow lists", counter: "filter_misses",
			packet: func(i int) []byte {
				return wire.AppendPacketHeader(nil, wire.MsgAck, forged(i), 0, 0, 0, 0)
			}},
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
					n, err := New(id, tr, Config{MaxFlows: tc.maxFlows, Rng: rand.New(rand.NewSource(int64(id)))})
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
				var victim, dest *Node
				for _, n := range nodes {
					switch n.ID() {
					case g.Stages[0][0]:
						victim = n
					case g.Dest:
						dest = n
					}
				}
				if err := tr.Attach(attacker, func(wire.NodeID, []byte) {}); err != nil {
					t.Fatal(err)
				}
				flooded := make(chan struct{})
				go func() {
					defer close(flooded)
					for i := range flood {
						tr.Send(attacker, victim.ID(), tc.packet(i)) // a full peer queue drops: still a flood
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
