package infoslicing

// One benchmark per table/figure of the paper's evaluation (§6-§8). Each
// bench runs a reduced version of the experiment and reports the headline
// quantity via b.ReportMetric, so `go test -bench .` regenerates the shape
// of every figure; the cmd/ tools run the full sweeps and print the
// complete series (see EXPERIMENTS.md for paper-vs-measured).

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/anonymity"
	"infoslicing/internal/code"
	"infoslicing/internal/eval"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// --- Fig. 7: anonymity vs fraction of malicious nodes -----------------------

func BenchmarkFig07AnonymityVsF(b *testing.B) {
	for _, f := range []float64{0.001, 0.01, 0.1, 0.5} {
		b.Run(fmt.Sprintf("f=%g", f), func(b *testing.B) {
			var last anonymity.Result
			for i := 0; i < b.N; i++ {
				r, err := anonymity.Simulate(anonymity.Params{
					N: 10000, L: 8, D: 3, F: f, Trials: 200,
					Rng: rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Source, "srcAnon")
			b.ReportMetric(last.Destination, "dstAnon")
		})
	}
	b.Run("chaum/f=0.1", func(b *testing.B) {
		var last anonymity.Result
		for i := 0; i < b.N; i++ {
			r, err := anonymity.SimulateChaum(anonymity.Params{
				N: 10000, L: 8, D: 3, F: 0.1, Trials: 200,
				Rng: rand.New(rand.NewSource(int64(i))),
			})
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		b.ReportMetric(last.Source, "srcAnon")
	})
}

// --- Fig. 8: anonymity vs split factor d ------------------------------------

func BenchmarkFig08AnonymityVsD(b *testing.B) {
	for _, f := range []float64{0.1, 0.4} {
		for _, d := range []int{2, 6, 12} {
			b.Run(fmt.Sprintf("f=%g/d=%d", f, d), func(b *testing.B) {
				var last anonymity.Result
				for i := 0; i < b.N; i++ {
					r, err := anonymity.Simulate(anonymity.Params{
						N: 10000, L: 8, D: d, F: f, Trials: 200,
						Rng: rand.New(rand.NewSource(int64(i))),
					})
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(last.Source, "srcAnon")
				b.ReportMetric(last.Destination, "dstAnon")
			})
		}
	}
}

// --- Fig. 9: anonymity vs path length L -------------------------------------

func BenchmarkFig09AnonymityVsL(b *testing.B) {
	for _, l := range []int{2, 8, 20} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			var last anonymity.Result
			for i := 0; i < b.N; i++ {
				r, err := anonymity.Simulate(anonymity.Params{
					N: 10000, L: l, D: 3, F: 0.1, Trials: 200,
					Rng: rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Source, "srcAnon")
			b.ReportMetric(last.Destination, "dstAnon")
		})
	}
}

// --- Fig. 10: anonymity vs added redundancy ---------------------------------

func BenchmarkFig10AnonymityVsRedundancy(b *testing.B) {
	for _, dp := range []int{3, 6, 9} { // R = 0, 1, 2 at d = 3
		r := float64(dp-3) / 3
		b.Run(fmt.Sprintf("R=%g", r), func(b *testing.B) {
			var last anonymity.Result
			for i := 0; i < b.N; i++ {
				res, err := anonymity.Simulate(anonymity.Params{
					N: 10000, L: 8, D: 3, DPrime: dp, F: 0.1, Trials: 200,
					Rng: rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Source, "srcAnon")
			b.ReportMetric(last.Destination, "dstAnon")
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

// --- Fig. 11: LAN per-flow throughput vs path length ------------------------

func BenchmarkFig11ThroughputLAN(b *testing.B) {
	env := eval.LAN2007()
	for _, l := range []int{2, 4} {
		b.Run(fmt.Sprintf("slicing/L=%d", l), func(b *testing.B) {
			benchSlicingFlow(b, env.Link, l, 2, 2, 1<<20)
		})
		b.Run(fmt.Sprintf("onion/L=%d", l), func(b *testing.B) {
			benchOnionFlow(b, env.Onion, l, 1<<20)
		})
	}
}

func benchSlicingFlow(b *testing.B, link simnet.LinkProfile, l, d, dp, bytes int) {
	b.Helper()
	var tput float64
	for i := 0; i < b.N; i++ {
		res, err := eval.SlicingFlow(eval.Params{
			Profile: link, L: l, D: d, DPrime: dp,
			TransferBytes: bytes, ChunkPayload: 1200 * d, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		tput = res.Throughput
	}
	b.ReportMetric(tput/1e6, "Mbps")
}

func benchOnionFlow(b *testing.B, link simnet.LinkProfile, l, bytes int) {
	b.Helper()
	var tput float64
	for i := 0; i < b.N; i++ {
		res, err := eval.OnionFlow(eval.Params{
			Profile: link, L: l, D: 1,
			TransferBytes: bytes, ChunkPayload: 1200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		tput = res.Throughput
	}
	b.ReportMetric(tput/1e6, "Mbps")
}

// --- Fig. 12: WAN (PlanetLab) per-flow throughput ----------------------------

func BenchmarkFig12ThroughputWAN(b *testing.B) {
	env := eval.PlanetLab2007()
	b.Run("slicing/L=3", func(b *testing.B) {
		benchSlicingFlow(b, env.Link, 3, 2, 2, 96<<10)
	})
	b.Run("onion/L=3", func(b *testing.B) {
		benchOnionFlow(b, env.Onion, 3, 96<<10)
	})
}

// --- Fig. 13: network throughput vs number of flows --------------------------

func BenchmarkFig13Scaling(b *testing.B) {
	for _, flows := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				tp, err := eval.SlicingScaling(eval.ScalingParams{
					Params: eval.Params{
						Profile: eval.LAN2007().Link, L: 3, D: 2, DPrime: 2,
						TransferBytes: 128 << 10, ChunkPayload: 2400,
						Seed: int64(i),
					},
					PoolSize: 30, Flows: flows,
				})
				if err != nil {
					b.Fatal(err)
				}
				total = tp
			}
			b.ReportMetric(total/1e6, "Mbps-total")
		})
	}
}

// --- Fig. 14: LAN setup time vs path length and split factor -----------------

func BenchmarkFig14SetupLAN(b *testing.B) {
	env := eval.LAN2007()
	for _, d := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("slicing/d=%d/L=4", d), func(b *testing.B) {
			benchSlicingSetup(b, env.Link, 4, d)
		})
	}
	b.Run("onion/L=4", func(b *testing.B) {
		benchOnionSetup(b, env.Onion, 4)
	})
}

func benchSlicingSetup(b *testing.B, link simnet.LinkProfile, l, d int) {
	b.Helper()
	var setup time.Duration
	for i := 0; i < b.N; i++ {
		res, err := eval.SlicingFlow(eval.Params{
			Profile: link, L: l, D: d, DPrime: d,
			TransferBytes: 1 << 10, ChunkPayload: 1200 * d, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		setup = res.SetupTime
	}
	b.ReportMetric(float64(setup.Microseconds())/1000, "setup-ms")
}

func benchOnionSetup(b *testing.B, link simnet.LinkProfile, l int) {
	b.Helper()
	var setup time.Duration
	for i := 0; i < b.N; i++ {
		res, err := eval.OnionFlow(eval.Params{
			Profile: link, L: l, D: 1,
			TransferBytes: 1 << 10, ChunkPayload: 1200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		setup = res.SetupTime
	}
	b.ReportMetric(float64(setup.Microseconds())/1000, "setup-ms")
}

// --- Fig. 15: WAN setup time --------------------------------------------------

func BenchmarkFig15SetupWAN(b *testing.B) {
	env := eval.PlanetLab2007()
	b.Run("slicing/d=2/L=3", func(b *testing.B) {
		benchSlicingSetup(b, env.Link, 3, 2)
	})
	b.Run("onion/L=3", func(b *testing.B) {
		benchOnionSetup(b, env.Onion, 3)
	})
}

// --- Fig. 16: analytic churn resilience --------------------------------------

func BenchmarkFig16AnalyticChurn(b *testing.B) {
	var sl, ec float64
	for i := 0; i < b.N; i++ {
		for _, p := range []float64{0.1, 0.3} {
			for dp := 2; dp <= 12; dp++ {
				sl = eval.SlicingSuccess(5, 2, dp, p)
				ec = eval.OnionECSuccess(5, 2, dp, p)
			}
		}
	}
	// Headline point: p=0.3, R=1 (d'=4).
	b.ReportMetric(eval.SlicingSuccess(5, 2, 4, 0.3), "slicing-p.3-R1")
	b.ReportMetric(eval.OnionECSuccess(5, 2, 4, 0.3), "onionEC-p.3-R1")
	_ = sl
	_ = ec
}

// --- Fig. 17: experimental churn resilience ----------------------------------

func BenchmarkFig17ChurnPlanetLab(b *testing.B) {
	var res eval.ExperimentResult
	for i := 0; i < b.N; i++ {
		r, err := eval.RunExperiment(eval.ExperimentParams{
			L: 3, D: 2, DPrime: 4, NodeFailProb: 0.25,
			Messages: 2, MessageBytes: 256, Trials: 3, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Slicing, "slicing-success")
	b.ReportMetric(res.OnionEC, "onionEC-success")
	b.ReportMetric(res.StandardOnion, "onion-success")
}

// --- Fig. 19 extension: live repair under stage-collapse churn ---------------

// BenchmarkLiveRepair drives the live-repair experiment: every flow loses
// two same-stage relays — one past the d'-d redundancy budget — with the
// control plane either repairing (splices) or merely detecting. The
// delivery-rate gap between the two rows is the control plane's
// contribution beyond redundancy.
func BenchmarkLiveRepair(b *testing.B) {
	run := func(b *testing.B, repair bool) {
		var res eval.LiveRepairResult
		for i := 0; i < b.N; i++ {
			r, err := eval.RunLiveRepair(eval.LiveRepairParams{
				L: 3, D: 2, DPrime: 3,
				Flows: 2, Messages: 6, MessageBytes: 256,
				KillPerFlow: 2, Trials: 1,
				Seed: int64(i), Repair: repair,
			})
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(res.Delivered, "delivery-rate")
		b.ReportMetric(float64(res.Splices), "splices")
	}
	b.Run("repair=on", func(b *testing.B) { run(b, true) })
	b.Run("repair=off", func(b *testing.B) { run(b, false) })
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
