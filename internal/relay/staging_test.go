package relay

import (
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// wavePacket is one set-up packet as a relay receives it.
type wavePacket struct {
	from  wire.NodeID
	frame []byte
}

// stagingGraph is the L=3, d=2, d'=3 graph the set-up tests and benchmarks
// admit flows of.
func stagingGraph(tb testing.TB) *core.Graph {
	relays := make([]wire.NodeID, 9)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	g, err := core.Build(core.Spec{
		L: 3, D: 2, DPrime: 3, Relays: relays, Dest: relays[0], Sources: []wire.NodeID{1000, 1001, 1002},
		Recode: true, Scramble: true, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// waveInto returns the set-up packets target receives when the source's wave
// passes through real relays at every stage before target's.
func waveInto(tb testing.TB, g *core.Graph, target wire.NodeID) []wavePacket {
	in := map[wire.NodeID][]wavePacket{}
	for _, s := range g.Setup {
		in[s.To] = append(in[s.To], wavePacket{s.From, s.Pkt.Marshal()})
	}
	for _, stage := range g.Stages {
		for _, v := range stage {
			if v == target {
				return in[target]
			}
			tr := &rawTransport{}
			n, err := New(v, tr, Config{Shards: 1, Rng: rand.New(rand.NewSource(int64(v)))})
			if err != nil {
				tb.Fatal(err)
			}
			for _, p := range in[v] {
				n.process(n.shards[0], p.from, p.frame)
			}
			n.Close()
			for _, s := range tr.packetsOfType(wire.MsgSetup) {
				in[s.to] = append(in[s.to], wavePacket{v, s.data})
			}
		}
	}
	tb.Fatalf("relay %d is not in the graph", target)
	return nil
}

// FuzzSetupStaging feeds one flow arbitrary set-up traffic, at a middle relay
// or at a leaf, on a virtual clock: the real wave in any order, duplicates,
// real packets replayed by other senders or relabelled with another claimed
// geometry, forged packets claiming any (d, slotLen, nSlots), bursts of
// senders past the observation cap, packets late after the decode or the
// forward, and SetupWait running out in between. Whatever arrives, staging
// never holds more packets than the flow has hop records, nor one from a
// sender without a record; it is gone once the wave has left or a leaf has
// decoded; at most one wave leaves; and the books balance.
func FuzzSetupStaging(f *testing.F) {
	g := stagingGraph(f)
	targets := []wire.NodeID{g.Stages[1][0], g.Stages[2][0]}
	waves := [][]wavePacket{waveInto(f, g, targets[0]), waveInto(f, g, targets[1])}
	if len(waves[0]) != 3 || len(waves[1]) != 3 {
		f.Fatalf("the targets receive %d and %d set-up packets, want 3 each", len(waves[0]), len(waves[1]))
	}
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 5, 20, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 4, 1, 0, 0, 0, 0, 3, 9, 200, 0, 1, 0, 5, 30, 0, 0, 2, 0})
	f.Add([]byte{0, 2, 0, 7, 0, 1, 0, 1, 1, 9, 0, 0, 0, 5, 30, 0, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		if len(script) > 512 {
			script = script[:512]
		}
		leaf := int(script[0] & 1)
		target, wave := targets[leaf], waves[leaf]
		flow, children := g.Flows[target], len(g.Infos[target].Children)
		clk := simnet.NewVirtualClock()
		tr := &rawTransport{}
		n, err := New(target, tr, Config{
			Shards: 1, Clock: clk, SetupWait: 10 * time.Millisecond,
			FlowTTL: time.Hour, Rng: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		sh := n.shards[0]
		forged := func(a, b byte) []byte {
			d, slotLen, nSlots := a%70, int(b)%97, int(a>>4)%5
			frame := wire.AppendPacketHeader(nil, wire.MsgSetup, flow, 0, d, uint16(slotLen), nSlots)
			body := make([]byte, nSlots*slotLen)
			rand.New(rand.NewSource(int64(a)<<8 | int64(b))).Read(body)
			return append(frame, body...)
		}
		check := func(step int) {
			var staged, hops, strangers int
			var established, stage bool
			sh.do(func() {
				fs := sh.flows[flow]
				if fs == nil {
					return
				}
				// Set-up is this flow's only phase: its tail is the staging.
				hops, established, stage = len(fs.hops()), fs.has(routeUp), fs.tail != nil
				if fs.tail != nil {
					staged = len(fs.tail.stage.pkts)
					for _, p := range fs.tail.stage.pkts {
						if fs.hopIndex(p.from) < 0 {
							strangers++
						}
					}
				}
			})
			sent := len(tr.packetsOfType(wire.MsgSetup))
			switch {
			case staged > hops || strangers > 0:
				t.Fatalf("step %d: %d packets staged (%d from senders without a record) for %d hop records", step, staged, strangers, hops)
			case sent > children:
				t.Fatalf("step %d: %d set-up packets sent to %d children", step, sent, children)
			case stage && (sent > 0 || established && children == 0):
				t.Fatalf("step %d: staging held after the set-up phase ended (%d packets sent, established %v)", step, sent, established)
			}
		}
		for i := 1; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			p := wave[int(a)%len(wave)]
			switch op % 6 {
			case 0: // a real wave packet from its sender
				n.process(sh, p.from, p.frame)
			case 1: // replayed by another, perhaps spoofed, sender
				n.process(sh, wire.NodeID(2000+int(b)), p.frame)
			case 2: // relabelled with another claimed split factor
				frame := append([]byte(nil), p.frame...)
				frame[13] = b
				n.process(sh, p.from, frame)
			case 3: // forged: any geometry, garbage slots
				n.process(sh, wire.NodeID(2000+int(b)%8), forged(a, b))
			case 4: // a burst of senders past the observation cap
				for id := range maxObservedHops + 16 {
					n.process(sh, wire.NodeID(3000+id), forged(a, b))
				}
			case 5: // time passes: SetupWait may run out
				clk.RunFor(time.Duration(a) * time.Millisecond)
			}
			check(i / 3)
		}
		clk.RunFor(time.Second)
		check(len(script))
		checkBooks(t, n)
	})
}
