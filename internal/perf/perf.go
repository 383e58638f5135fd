// Package perf drives the throughput and setup-latency experiments of §7:
// per-flow throughput on LAN and PlanetLab links (Figs. 11-12), network
// throughput scaling with concurrent flows (Fig. 13), and graph/circuit
// setup times (Figs. 14-15). Information slicing and the onion-routing
// baseline run their full protocol stacks over simnet's virtual links, and
// every time is read from the virtual clock, so a figure is a function of
// its seed. The comparison captures the asymmetry the paper measures:
// slicing relays only shuffle slices during the data phase, while onion
// relays decrypt every byte at every hop.
package perf

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/metrics"
	"infoslicing/internal/onion"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
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
		return fmt.Errorf("perf: invalid params %+v", *p)
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
var ErrTimeout = errors.New("perf: experiment timed out")

// experimentTimeout bounds each phase of a run, in virtual time.
const experimentTimeout = 5 * time.Minute

func relayCfg(seed int64, clk simnet.Clock) relay.Config {
	return relay.Config{
		SetupWait:  300 * time.Millisecond,
		RoundWait:  300 * time.Millisecond,
		FlowTTL:    5 * time.Minute,
		GCInterval: 30 * time.Second,
		Rng:        rand.New(rand.NewSource(seed)),
		Clock:      clk,
	}
}

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
	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, p.Seed, p.Profile)
	defer net.Close()

	kr := seededReader{rand.New(rand.NewSource(p.Seed + 1))}
	ids := make([]wire.NodeID, p.L)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	dir, err := directory(ids)
	if err != nil {
		return FlowResult{}, err
	}
	nodes := make([]*onion.Node, 0, p.L)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, id := range ids {
		n, err := onion.NewNode(id, dir, net)
		if err != nil {
			return FlowResult{}, err
		}
		nodes = append(nodes, n)
	}
	const senderID = 10_000
	if err := net.Attach(senderID, func(wire.NodeID, []byte) {}); err != nil {
		return FlowResult{}, err
	}
	rng := rand.New(rand.NewSource(p.Seed + 2))
	snd := onion.NewSender(senderID, net, dir, rng, kr)
	if p.ChunkPayload > 0 {
		snd.CellPayload = p.ChunkPayload
	}

	dest := nodes[p.L-1]
	start := clk.Elapsed()
	c, err := snd.BuildCircuit(ids)
	if err != nil {
		return FlowResult{}, err
	}
	if !clk.AwaitCond(experimentTimeout, func() bool {
		for _, n := range nodes {
			if n.Counters().Get("setup_in") == 0 {
				return false
			}
		}
		return true
	}) {
		return FlowResult{}, fmt.Errorf("%w: onion setup", ErrTimeout)
	}
	res := FlowResult{SetupTime: clk.Elapsed() - start}

	msg := make([]byte, p.TransferBytes)
	rng.Read(msg)
	start = clk.Elapsed()
	if err := snd.Send(c, 1, msg); err != nil {
		return FlowResult{}, err
	}
	var got onion.Message
	if !clk.AwaitCond(experimentTimeout, func() bool { return recv(dest.Received(), &got) }) {
		return FlowResult{}, fmt.Errorf("%w: onion transfer", ErrTimeout)
	}
	if len(got.Data) != p.TransferBytes {
		return FlowResult{}, fmt.Errorf("perf: corrupted transfer")
	}
	res.Throughput = goodput(p.TransferBytes, clk.Elapsed()-start)
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
		return 0, nil, fmt.Errorf("perf: pool %d too small for graph %d", sp.PoolSize, need)
	}
	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, sp.Seed, sp.Profile)
	defer net.Close()
	nodes := make([]*relay.Node, 0, sp.PoolSize)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i := 0; i < sp.PoolSize; i++ {
		n, err := relay.New(wire.NodeID(i+1), net, relayCfg(sp.Seed+int64(i), clk))
		if err != nil {
			return 0, nil, err
		}
		nodes = append(nodes, n)
	}

	type flow struct {
		snd  *source.Sender
		g    *core.Graph
		msg  []byte
		took time.Duration
	}
	flows := make([]flow, sp.Flows)
	// Several flows may end at one pool node: deliveries are told apart by
	// the destination's flow id.
	byID := make(map[wire.FlowID]*flow, sp.Flows)
	for f := range flows {
		rng := rand.New(rand.NewSource(sp.Seed + int64(f)*101))
		relays := make([]wire.NodeID, need)
		for i, pi := range rng.Perm(sp.PoolSize)[:need] {
			relays[i] = wire.NodeID(pi + 1)
		}
		srcs := make([]wire.NodeID, sp.DPrime)
		for i := range srcs {
			srcs[i] = wire.NodeID(100_000 + f*100 + i)
			if err := net.Attach(srcs[i], func(wire.NodeID, []byte) {}); err != nil {
				return 0, nil, err
			}
		}
		g, err := core.Build(core.Spec{
			L: sp.L, D: sp.D, DPrime: sp.DPrime,
			Relays: relays, Dest: relays[need-1], Sources: srcs,
			Recode: true, Scramble: true, Rng: rng,
		})
		if err != nil {
			return 0, nil, err
		}
		msg := make([]byte, sp.TransferBytes)
		rng.Read(msg)
		flows[f] = flow{snd: source.New(net, g, source.Config{ChunkPayload: sp.ChunkPayload, Clock: clk}, rng), g: g, msg: msg}
		byID[g.Flows[g.Dest]] = &flows[f]
	}

	start := clk.Elapsed()
	for _, fl := range flows {
		if err := fl.snd.Establish(); err != nil {
			return 0, nil, err
		}
	}
	if !clk.AwaitCond(experimentTimeout, func() bool {
		for _, fl := range flows {
			for _, stage := range fl.g.Stages {
				for _, id := range stage {
					if !nodes[id-1].Established(fl.g.Flows[id]) {
						return false
					}
				}
			}
		}
		return true
	}) {
		return 0, nil, fmt.Errorf("%w: setup", ErrTimeout)
	}
	setup := clk.Elapsed() - start

	start = clk.Elapsed()
	for _, fl := range flows {
		if err := fl.snd.Send(fl.msg); err != nil {
			return 0, nil, err
		}
	}
	left := len(flows)
	var bad error
	if !clk.AwaitCond(experimentTimeout, func() bool {
		for _, fl := range flows {
			var m relay.Message
			for recv(nodes[fl.g.Dest-1].Received(), &m) {
				if got := byID[m.Flow]; got != nil {
					if len(m.Data) != sp.TransferBytes {
						bad = fmt.Errorf("perf: flow %d: corrupted transfer (%d bytes)", m.Flow, len(m.Data))
					}
					got.took = clk.Elapsed() - start
					left--
				}
			}
		}
		return left == 0 || bad != nil
	}) {
		return 0, nil, fmt.Errorf("%w: %d of %d transfers", ErrTimeout, left, len(flows))
	}
	if bad != nil {
		return 0, nil, bad
	}
	bps := make([]float64, len(flows))
	for i, fl := range flows {
		bps[i] = goodput(sp.TransferBytes, fl.took)
	}
	return setup, bps, nil
}

// Onion identities shared by every run in the process: a virtual-time run
// depends on the sizes of keys, never on their bits, and RSA key generation
// would otherwise dominate a figure's running time.
var (
	dirMu sync.Mutex
	dir   = onion.NewDirectory()
)

// directory returns the shared directory, holding identities for ids.
func directory(ids []wire.NodeID) (*onion.Directory, error) {
	dirMu.Lock()
	defer dirMu.Unlock()
	for _, id := range ids {
		if _, ok := dir.Identity(id); ok {
			continue
		}
		// 1024-bit keys: the smallest size that fits an OAEP-SHA256 key wrap.
		if err := dir.Generate(seededReader{rand.New(rand.NewSource(int64(id)))}, 1024, id); err != nil {
			return nil, err
		}
	}
	return dir, nil
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

// recv moves one buffered message from ch into *dst, reporting whether
// there was one.
func recv[T any](ch <-chan T, dst *T) bool {
	select {
	case *dst = <-ch:
		return true
	default:
		return false
	}
}

// goodput is bytes over d, in bits per second.
func goodput(bytes int, d time.Duration) float64 {
	return float64(bytes) * 8 / d.Seconds()
}

type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = byte(s.r.Intn(256))
	}
	return len(b), nil
}
