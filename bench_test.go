package infoslicing

// The root benchmarks: BenchmarkFigures times every figure of the paper's
// evaluation (§6-§8) at the parameters cmd/figures prints, and the rest
// measure the coding cost per packet, two ablations and the allocations of
// the batched data path (see EXPERIMENTS.md for paper-vs-measured).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/eval"
	"infoslicing/internal/metrics"
	"infoslicing/internal/wire"
)

// --- Figs. 7-17 and 19 -------------------------------------------------------

// BenchmarkFigures runs every row of eval.Figures, one sub-benchmark per
// row, at the parameters cmd/figures prints, and reports the last point of
// each series. Profile one figure with, for instance,
// go test -run '^$' -bench BenchmarkFigures/fig13 -cpuprofile cpu.prof .
func BenchmarkFigures(b *testing.B) {
	for _, f := range eval.Figures {
		b.Run(f.Name, func(b *testing.B) {
			var ss []*metrics.Series
			for i := 0; i < b.N; i++ {
				var err error
				if ss, err = f.Run(1); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range ss {
				b.ReportMetric(s.Y[len(s.Y)-1], s.Name)
			}
		})
	}
}

// --- §7.1: coding microbenchmark (µs per 1500-byte packet) ------------------

// BenchmarkCodingPerPacket is the headline coding metric: the whole GF(2^8)
// cost one 1500-byte packet pays on its way through a slicing path — source
// encode into d'=d+1 slices, one mid-path forward (a relay regenerating a
// lost slice by recombining the survivors, §4.4.1), and destination decode
// from d survivors. Each iteration is one packet end to end; µs/pkt and the
// implied single-core ceiling are reported per split factor.
func BenchmarkCodingPerPacket(b *testing.B) {
	for d := 2; d <= 8; d++ {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(d)))
			enc, err := code.NewEncoder(d, d+1, rng)
			if err != nil {
				b.Fatal(err)
			}
			pkt := make([]byte, 1500)
			rng.Read(pkt)
			var slices, regen []code.Slice
			b.ReportAllocs()
			b.SetBytes(1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slices, err = enc.EncodeInto(pkt, slices)
				if err != nil {
					b.Fatal(err)
				}
				// Mid-path forward: one of the d+1 slices is lost; a relay
				// recombines the d survivors into a fresh random slice.
				regen, err = code.RecombineInto(regen, slices[:d], 1, rng)
				if err != nil {
					b.Fatal(err)
				}
				slices[d] = regen[0]
				// Destination gathers the arriving slices and decodes from an
				// independent d-subset, as a real receiver does.
				if _, err := code.Decode(d, slices); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perPkt := float64(b.Elapsed().Microseconds()) / float64(b.N)
			b.ReportMetric(perPkt, "µs/pkt")
			if perPkt > 0 {
				b.ReportMetric(1500*8/perPkt, "Mbps-max")
			}
		})
	}
}

// --- Ablation: per-hop scrambling on/off --------------------------------------

// BenchmarkAblationScrambling measures the cost of the §9.4a pattern-hiding
// transforms on end-to-end throughput (they touch every forwarded byte).
func BenchmarkAblationScrambling(b *testing.B) {
	run := func(b *testing.B, noScramble bool) {
		var tput float64
		for i := 0; i < b.N; i++ {
			nw := New(WithSeed(int64(i)))
			if _, err := nw.Grow(8); err != nil {
				b.Fatal(err)
			}
			conn, err := nw.Dial(DialSpec{L: 4, D: 2, NoScramble: noScramble})
			if err != nil {
				b.Fatal(err)
			}
			msg := make([]byte, 256<<10)
			start := time.Now()
			if err := conn.Send(msg); err != nil {
				b.Fatal(err)
			}
			select {
			case <-conn.Received():
				tput = float64(len(msg)) * 8 / time.Since(start).Seconds()
			case <-time.After(30 * time.Second):
				b.Fatal("transfer timed out")
			}
			nw.Close()
		}
		b.ReportMetric(tput/1e6, "Mbps")
	}
	b.Run("scramble=on", func(b *testing.B) { run(b, false) })
	b.Run("scramble=off", func(b *testing.B) { run(b, true) })
}

// --- Ablation: in-network regeneration on/off --------------------------------

// BenchmarkAblationRecoding contrasts slicing with and without the §4.4.1
// regeneration step under identical failures, isolating the design choice
// DESIGN.md calls out.
func BenchmarkAblationRecoding(b *testing.B) {
	run := func(b *testing.B, recode bool) {
		ok := 0
		runs := 0
		for i := 0; i < b.N; i++ {
			nw := New(WithSeed(int64(i)))
			if _, err := nw.Grow(12); err != nil {
				b.Fatal(err)
			}
			conn, err := nw.Dial(DialSpec{L: 4, D: 2, DPrime: 3, NoRecode: !recode})
			if err != nil {
				b.Fatal(err)
			}
			// Fail one relay in an early stage and one late, excluding dest.
			killed := 0
			for _, id := range nw.Nodes() {
				if id != conn.Dest() && killed < 2 {
					nw.Fail(id)
					killed++
				}
			}
			if err := conn.Send([]byte("ablation probe")); err == nil {
				select {
				case <-conn.Received():
					ok++
				case <-time.After(2 * time.Second):
				}
			}
			runs++
			nw.Close()
		}
		b.ReportMetric(float64(ok)/float64(runs), "delivery-rate")
	}
	b.Run("recode=on", func(b *testing.B) { run(b, true) })
	b.Run("recode=off", func(b *testing.B) { run(b, false) })
}

// --- Allocation regression: the batched data path ----------------------------

// BenchmarkDataPathSteadyState drives one data round through every layer of
// the zero-copy pipeline exactly as source and relays compose it: encode
// into reused slices, frame into a reused buffer, parse the "received"
// packet into views, verify and regenerate at a simulated relay, re-frame,
// and decode with a held Decoder onto a reused stream. ReportAllocs makes per-round garbage a
// visible regression; the matching per-layer benchmarks live in
// internal/code and internal/relay.
func BenchmarkDataPathSteadyState(b *testing.B) {
	const d, dp = 2, 3
	rng := rand.New(rand.NewSource(1))
	enc, err := code.NewEncoder(d, dp, rng)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := code.NewDecoder(d)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1200*d)
	rng.Read(msg)

	var slices []code.Slice
	var frame, stream []byte
	var regen []code.Slice
	received := make([]code.Slice, 0, dp)

	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Source: encode the round and frame each slice.
		slices, err = enc.EncodeInto(msg, slices)
		if err != nil {
			b.Fatal(err)
		}
		received = received[:0]
		for e := 0; e < dp; e++ {
			slotLen := len(slices[e].Coeff) + len(slices[e].Payload) + 4
			frame = wire.AppendPacketHeader(frame[:0], wire.MsgData, 9, uint32(i), d, uint16(slotLen), 1)
			frame = wire.AppendSlot(frame, slices[e])
			// Relay: parse into views, verify the slot.
			pkt, err := wire.UnmarshalPacket(frame)
			if err != nil {
				b.Fatal(err)
			}
			s, err := wire.DecodeSlot(pkt.Slots[0], d)
			if err != nil {
				b.Fatal(err)
			}
			if e == dp-1 {
				// One slice "lost": regenerate it from the survivors
				// (network coding, §4.4.1) instead of delivering it.
				regen, err = code.RecombineInto(regen, received, 1, rng)
				if err != nil {
					b.Fatal(err)
				}
				received = append(received, regen[0])
			} else {
				received = append(received, s.Clone())
			}
		}
		// Destination: decode the round onto its stream.
		if stream, err = dec.DecodeTo(stream[:0], received); err != nil {
			b.Fatal(err)
		}
	}
}
