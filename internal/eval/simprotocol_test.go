package eval

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/wire"
)

// protocolShape is many concurrent slicing flows on one SimNet: flows
// graphs of L=3, d=2, d'=3, each over nine relays drawn from a pool of
// relays, with the control plane on (controlRelay's heartbeat, the sources'
// repair loops). It is the traffic the simulator exists to run, so the event
// core is judged on it.
type protocolShape struct {
	relays, flows int
}

// build hosts the shape's relays and dials its flows on a fresh testbed;
// nothing is sent yet.
func (ps protocolShape) build(seed int64) (*testbed, error) {
	const l, d, dp = 3, 2, 3
	tb := newTestbed(seed, simLink)
	if err := tb.addRelays(nodeIDs(1, ps.relays), controlRelay, seed); err != nil {
		tb.close()
		return nil, err
	}
	for f := 0; f < ps.flows; f++ {
		rng := rand.New(rand.NewSource(seed + int64(f)*7919))
		relays := make([]wire.NodeID, 0, l*dp)
		for len(relays) < cap(relays) {
			if id := wire.NodeID(1 + rng.Intn(ps.relays)); !slices.Contains(relays, id) {
				relays = append(relays, id)
			}
		}
		if _, err := tb.dial(core.Spec{
			L: l, D: d, DPrime: dp,
			Relays: relays, Dest: relays[len(relays)-1], Sources: nodeIDs(wire.NodeID(1_000_000+f*dp), dp),
			Recode: true, Scramble: true, Rng: rng,
		}, 256); err != nil {
			tb.close()
			return nil, err
		}
	}
	return tb, nil
}

// run establishes every flow, then streams rounds messages of 256 bytes down
// each, waiting for all of them to be delivered after each round. It looks
// for deliveries once a virtual millisecond: a condition checked after
// every event would drain every destination per event, and time that
// instead of the simulator.
func (ps protocolShape) run(tb *testbed, rounds int) error {
	for _, fl := range tb.flows {
		if err := fl.start(); err != nil {
			return err
		}
	}
	if !tb.established(10 * time.Second) {
		return fmt.Errorf("%d flows never established", ps.flows)
	}
	msg := make([]byte, 256)
	for r := 0; r < rounds; r++ {
		for i, fl := range tb.flows {
			msg[0], msg[1] = byte(r), byte(i)
			if err := fl.send(msg); err != nil {
				return err
			}
		}
		for ms := 0; !tb.caughtUp(); ms++ {
			if ms == 10_000 {
				return fmt.Errorf("round %d: not every message was delivered", r)
			}
			tb.Clk.RunFor(time.Millisecond)
		}
	}
	for i, fl := range tb.flows {
		if fl.delivered != rounds || fl.bytes != rounds*len(msg) {
			return fmt.Errorf("flow %d: %d of %d messages delivered (%d bytes)", i, fl.delivered, rounds, fl.bytes)
		}
	}
	return nil
}

// BenchmarkSimProtocol times the simulator under protocol traffic: set-up
// plus ten rounds of every flow of a protocolShape. One op is one whole
// simulation; building and closing the relays are not timed. It reports the
// network's delivered packets and the virtual time covered per wall second.
func BenchmarkSimProtocol(b *testing.B) {
	for _, ps := range []protocolShape{{1_000, 100}, {10_000, 1_000}} {
		b.Run(fmt.Sprintf("relays=%d/flows=%d", ps.relays, ps.flows), func(b *testing.B) {
			b.ReportAllocs()
			var wall, virtual time.Duration
			var pkts int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tb, err := ps.build(int64(i + 1))
				if err != nil {
					b.Fatal(err)
				}
				v0 := tb.Elapsed()
				b.StartTimer()
				t0 := time.Now()
				err = ps.run(tb, 10)
				wall += time.Since(t0)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				c := tb.Net.Counters()
				pkts += c.Get("packets") - c.Get("lost")
				virtual += tb.Elapsed() - v0
				tb.close()
				b.StartTimer()
			}
			b.ReportMetric(float64(pkts)/wall.Seconds(), "pkts/s")
			b.ReportMetric(virtual.Seconds()/wall.Seconds(), "vs/s")
		})
	}
}

// traceDigest runs a 10^3-relay protocol shape for two rounds and digests
// its delivery trace.
func traceDigest(t *testing.T, seed int64) [sha256.Size]byte {
	t.Helper()
	ps := protocolShape{relays: 1_000, flows: 100}
	tb, err := ps.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	tb.Net.EnableTrace()
	if err := ps.run(tb, 2); err != nil {
		t.Fatal(err)
	}
	if dropped := tb.Net.Counters().Get("trace_dropped"); dropped != 0 {
		t.Fatalf("the trace ring dropped %d events", dropped)
	}
	return sha256.Sum256([]byte(tb.Net.TraceString()))
}

// A 10^3-relay protocol shape replays to the same digest from its seed, and
// a different seed changes it.
func TestProtocolShapeDeterminism(t *testing.T) {
	a, b := traceDigest(t, 7), traceDigest(t, 7)
	if a != b {
		t.Fatalf("same seed, different runs: %x vs %x", a, b)
	}
	if traceDigest(t, 8) == a {
		t.Fatal("different seed produced an identical run")
	}
}
