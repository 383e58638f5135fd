package eval

// §7: per-flow throughput on LAN and PlanetLab links (Figs. 11-12), network
// throughput scaling with concurrent flows (Fig. 13), and graph/circuit
// set-up times (Figs. 14-15). The comparison captures the asymmetry the
// paper measures: slicing relays only shuffle slices during the data phase,
// while onion relays decrypt every byte at every hop.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/metrics"
	"infoslicing/internal/onion"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Params configures a single-flow experiment.
type Params struct {
	// Profile shapes every link of the run. It must take time (a Delay or
	// a Rate): on an unshaped virtual link nothing takes any time to
	// measure.
	Profile simnet.LinkProfile
	L       int // path length
	D       int // split factor
	DPrime  int // slices sent (defaults to D)

	// TransferBytes is the message size for throughput runs.
	TransferBytes int
	// ChunkPayload is the per-round plaintext size (default 1200*D, giving
	// ~1500-byte slice packets as in the paper).
	ChunkPayload int

	Seed int64
}

// Env is one emulated deployment of the paper's era: Link shapes every
// slicing run and Onion every onion run. The paper's testbed ran a Python
// prototype on 2.8 GHz Pentium hosts, where an onion relay decrypts at tens
// of Mb/s — the root cause of Figs. 11-12's ordering — so Onion is Link
// with the egress rate lowered to the relay's decryption rate. Calibration
// notes live in EXPERIMENTS.md.
type Env struct {
	Link, Onion simnet.LinkProfile
}

// LAN2007 models the paper's 1 Gb/s switched LAN of 2.8 GHz Pentiums (§7):
// 200-500 µs one-way, per-node forwarding capacity ~60 Mb/s
// (interpreter-bound daemon), onion decryption ~30 Mb/s.
func LAN2007() Env {
	link := simnet.LinkProfile{Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond, Rate: 60_000_000}
	onion := link
	onion.Rate = 30_000_000
	return Env{Link: link, Onion: onion}
}

// PlanetLab2007 models the paper's loaded wide-area testbed (§7): 30-120 ms
// one-way, ~2 Mb/s usable per node, decryption on heavily shared CPUs
// (~6 ms per KB). Loss is zero because the prototype ran over TCP (reliable
// streams); packet loss enters the evaluation only through churn (§8), not
// here.
func PlanetLab2007() Env {
	link := simnet.LinkProfile{Delay: 30 * time.Millisecond, Jitter: 90 * time.Millisecond, Rate: 2_000_000}
	onion := link
	onion.Rate = 1_400_000
	return Env{Link: link, Onion: onion}
}

func (p *Params) normalize() error {
	if p.DPrime == 0 {
		p.DPrime = p.D
	}
	if p.L < 1 || p.D < 1 || p.DPrime < p.D {
		return fmt.Errorf("eval: invalid params %+v", *p)
	}
	if p.TransferBytes == 0 {
		p.TransferBytes = 1 << 20
	}
	return nil
}

// FlowResult reports one flow's measurements.
type FlowResult struct {
	SetupTime  time.Duration
	Throughput float64 // goodput, bits per second
}

// ErrTimeout reports an experiment that did not complete.
var ErrTimeout = errors.New("eval: experiment timed out")

// experimentTimeout bounds each phase of a run, in virtual time.
const experimentTimeout = 5 * time.Minute

// SlicingFlow sets up one forwarding graph and measures setup latency and
// the goodput of a TransferBytes transfer.
func SlicingFlow(p Params) (FlowResult, error) {
	if err := p.normalize(); err != nil {
		return FlowResult{}, err
	}
	setup, bps, err := slicing(ScalingParams{Params: p, PoolSize: p.L * p.DPrime, Flows: 1})
	if err != nil {
		return FlowResult{}, err
	}
	return FlowResult{SetupTime: setup, Throughput: bps[0]}, nil
}

// OnionFlow measures the baseline: a single onion circuit of L relays, with
// the last relay acting as the destination.
func OnionFlow(p Params) (FlowResult, error) {
	if err := p.normalize(); err != nil {
		return FlowResult{}, err
	}
	tb := newTestbed(p.Seed, p.Profile)
	defer tb.close()
	path := nodeIDs(1, p.L)
	nodes, err := tb.addOnions(path)
	if err != nil {
		return FlowResult{}, err
	}
	rng := rand.New(rand.NewSource(p.Seed + 2))
	snd, err := tb.onionSender(10_000, rng, p.Seed+1)
	if err != nil {
		return FlowResult{}, err
	}
	if p.ChunkPayload > 0 {
		snd.CellPayload = p.ChunkPayload
	}

	start := tb.Elapsed()
	c, err := snd.BuildCircuit(path)
	if err != nil {
		return FlowResult{}, err
	}
	if !tb.Await(experimentTimeout, func() bool {
		for _, n := range nodes {
			if n.Counters().Get("setup_in") == 0 {
				return false
			}
		}
		return true
	}) {
		return FlowResult{}, fmt.Errorf("%w: onion setup", ErrTimeout)
	}
	res := FlowResult{SetupTime: tb.Elapsed() - start}

	msg := make([]byte, p.TransferBytes)
	rng.Read(msg)
	start = tb.Elapsed()
	if err := snd.Send(c, 1, msg); err != nil {
		return FlowResult{}, err
	}
	dest := nodes[p.L-1]
	var got onion.Message
	if !tb.Await(experimentTimeout, func() bool { return recv(dest.Received(), &got) }) {
		return FlowResult{}, fmt.Errorf("%w: onion transfer", ErrTimeout)
	}
	if len(got.Data) != p.TransferBytes {
		return FlowResult{}, fmt.Errorf("eval: corrupted transfer")
	}
	res.Throughput = goodput(p.TransferBytes, tb.Elapsed()-start)
	return res, nil
}

// ScalingParams configures the Fig. 13 experiment: many concurrent
// anonymous flows sharing one fixed relay pool.
type ScalingParams struct {
	Params
	PoolSize int // overlay nodes shared by all flows (paper: 100)
	Flows    int // concurrent anonymous flows
}

// SlicingScaling measures total network throughput (the sum of per-flow
// goodputs) with Flows concurrent transfers over a shared pool.
func SlicingScaling(sp ScalingParams) (float64, error) {
	if err := sp.normalize(); err != nil {
		return 0, err
	}
	_, bps, err := slicing(sp)
	total := 0.0
	for _, b := range bps {
		total += b
	}
	return total, err
}

// slicing runs sp.Flows flows, each over L·d' relays drawn uniformly from a
// pool of sp.PoolSize. It establishes every graph and measures the set-up
// time until every relay holds its routing block (the paper places the
// receiver in the last stage for this measurement so the number covers the
// whole graph); then every flow sends TransferBytes at one virtual instant
// and it measures each flow's goodput.
func slicing(sp ScalingParams) (time.Duration, []float64, error) {
	need := sp.L * sp.DPrime
	if sp.PoolSize < need {
		return 0, nil, fmt.Errorf("eval: pool %d too small for graph %d", sp.PoolSize, need)
	}
	tb := newTestbed(sp.Seed, sp.Profile)
	defer tb.close()
	if err := tb.addRelays(nodeIDs(1, sp.PoolSize), perfRelay, sp.Seed-1); err != nil {
		return 0, nil, err
	}
	msgs := make([][]byte, sp.Flows)
	for f := range msgs {
		rng := rand.New(rand.NewSource(sp.Seed + int64(f)*101))
		relays := make([]wire.NodeID, need)
		for i, pi := range rng.Perm(sp.PoolSize)[:need] {
			relays[i] = wire.NodeID(pi + 1)
		}
		if _, err := tb.dial(core.Spec{
			L: sp.L, D: sp.D, DPrime: sp.DPrime,
			Relays: relays, Dest: relays[need-1], Sources: nodeIDs(wire.NodeID(100_000+f*100), sp.DPrime),
			Recode: true, Scramble: true, Rng: rng,
		}, sp.ChunkPayload); err != nil {
			return 0, nil, err
		}
		msgs[f] = make([]byte, sp.TransferBytes)
		rng.Read(msgs[f])
	}

	start := tb.Elapsed()
	for _, fl := range tb.flows {
		if err := fl.snd.Establish(); err != nil {
			return 0, nil, err
		}
	}
	if !tb.established(experimentTimeout) {
		return 0, nil, fmt.Errorf("%w: setup", ErrTimeout)
	}
	setup := tb.Elapsed() - start

	start = tb.Elapsed()
	for f, fl := range tb.flows {
		if err := fl.send(msgs[f]); err != nil {
			return 0, nil, err
		}
	}
	if !tb.Await(experimentTimeout, tb.caughtUp) {
		return 0, nil, fmt.Errorf("%w: transfers", ErrTimeout)
	}
	bps := make([]float64, len(tb.flows))
	for i, fl := range tb.flows {
		if fl.bytes != sp.TransferBytes {
			return 0, nil, fmt.Errorf("eval: flow %d: corrupted transfer (%d bytes)", i, fl.bytes)
		}
		bps[i] = goodput(sp.TransferBytes, fl.last-start)
	}
	return setup, bps, nil
}

// ThroughputSweep is Figs. 11-12 on env: the per-flow goodput (Mb/s) of
// slicing (d=2) and of onion routing at L = 2..5.
func ThroughputSweep(env Env, transfer int, seed int64) ([]*metrics.Series, error) {
	sl, on := &metrics.Series{Name: "slicing(d=2)"}, &metrics.Series{Name: "onion"}
	for l := 2; l <= 5; l++ {
		slr, err := SlicingFlow(Params{
			Profile: env.Link, L: l, D: 2, DPrime: 2,
			TransferBytes: transfer, ChunkPayload: 2400, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("slicing L=%d: %w", l, err)
		}
		onr, err := OnionFlow(Params{
			Profile: env.Onion, L: l, D: 1,
			TransferBytes: transfer, ChunkPayload: 1200, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("onion L=%d: %w", l, err)
		}
		sl.Add(float64(l), slr.Throughput/1e6)
		on.Add(float64(l), onr.Throughput/1e6)
	}
	return []*metrics.Series{sl, on}, nil
}

// ScalingSweep is Fig. 13 on LAN2007: the total goodput (Mb/s) of each
// number of concurrent flows (d=3, L=5) over a 100-node pool.
func ScalingSweep(flows []int, transfer int, seed int64) ([]*metrics.Series, error) {
	tot := &metrics.Series{Name: "total(Mb/s)"}
	for _, n := range flows {
		bps, err := SlicingScaling(ScalingParams{
			Params: Params{
				Profile: LAN2007().Link, L: 5, D: 3, DPrime: 3,
				TransferBytes: transfer, ChunkPayload: 3600, Seed: seed,
			},
			PoolSize: 100, Flows: n,
		})
		if err != nil {
			return nil, fmt.Errorf("%d flows: %w", n, err)
		}
		tot.Add(float64(n), bps/1e6)
	}
	return []*metrics.Series{tot}, nil
}

// SetupSweep is Figs. 14-15 on env: the set-up time (ms, mean of reps runs
// on consecutive seeds) of an onion circuit and of slicing graphs with
// d = 2, 3, 4, at L = 1..6.
func SetupSweep(env Env, reps int, seed int64) ([]*metrics.Series, error) {
	all := []*metrics.Series{{Name: "onion"}}
	for _, d := range []int{2, 3, 4} {
		all = append(all, &metrics.Series{Name: fmt.Sprintf("slicing(d=%d)", d)})
	}
	for l := 1; l <= 6; l++ {
		for i, s := range all {
			var ms []float64
			for r := 0; r < reps; r++ {
				// Series i > 0 is slicing with d = i+1; series 0 is onion.
				p := Params{Profile: env.Link, L: l, D: i + 1, TransferBytes: 1 << 10, Seed: seed + int64(r)}
				run := SlicingFlow
				if i == 0 {
					p.Profile, run = env.Onion, OnionFlow
				}
				res, err := run(p)
				if err != nil {
					return nil, fmt.Errorf("%s L=%d: %w", s.Name, l, err)
				}
				ms = append(ms, float64(res.SetupTime.Microseconds())/1000)
			}
			s.Add(float64(l), metrics.Mean(ms))
		}
	}
	return all, nil
}

// goodput is bytes over d, in bits per second.
func goodput(bytes int, d time.Duration) float64 {
	return float64(bytes) * 8 / d.Seconds()
}
