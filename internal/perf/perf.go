// Package perf drives the throughput and setup-latency experiments of §7:
// per-flow throughput on LAN and PlanetLab profiles (Figs. 11-12), network
// throughput scaling with concurrent flows (Fig. 13), and graph/circuit
// setup times (Figs. 14-15). Information slicing and the onion-routing
// baseline run their full protocol stacks over the same shaped overlay, so
// the comparison captures the real asymmetry the paper measures: slicing
// relays only shuffle slices during the data phase, while onion relays
// decrypt every byte at every hop.
package perf

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/onion"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// Params configures a single-flow experiment.
type Params struct {
	Profile overlay.Profile
	L       int // path length
	D       int // split factor
	DPrime  int // slices sent (defaults to D)

	// TransferBytes is the message size for throughput runs.
	TransferBytes int
	// ChunkPayload is the per-round plaintext size (default 1200*D, giving
	// ~1500-byte slice packets as in the paper).
	ChunkPayload int

	// OnionCryptoPerKB emulates 2007-era per-relay decryption cost for the
	// onion baseline (see Env). Zero = modern hardware.
	OnionCryptoPerKB time.Duration

	Seed int64
}

// Env bundles a network profile with the legacy-crypto emulation the onion
// baseline needs to reproduce the paper's era. The paper's testbed ran a
// Python prototype on 2.8 GHz Pentium hosts, where a relay decrypts at tens
// of Mb/s — the root cause of Figs. 11-12's ordering. Calibration notes
// live in EXPERIMENTS.md; on modern hardware with AES-NI the ordering
// flips, which the benchmarks report as an ablation.
type Env struct {
	Profile          overlay.Profile
	OnionCryptoPerKB time.Duration
}

// LAN2007 models the paper's 1 Gb/s switched LAN of 2.8 GHz Pentiums (§7):
// per-node forwarding capacity ~60 Mb/s (interpreter-bound daemon), onion
// decryption ~30 Mb/s.
func LAN2007() Env {
	p := overlay.LAN()
	p.Name = "lan2007"
	p.BandwidthBps = 60_000_000
	return Env{Profile: p, OnionCryptoPerKB: 270 * time.Microsecond}
}

// PlanetLab2007 models the paper's loaded wide-area testbed (§7): ~2 Mb/s
// usable per node, intercontinental RTTs, decryption on heavily shared
// CPUs. Loss is zero because the prototype ran over TCP (reliable streams);
// packet loss enters the evaluation only through churn (§8), not here.
func PlanetLab2007() Env {
	p := overlay.PlanetLab()
	p.Name = "planetlab2007"
	p.BandwidthBps = 2_000_000
	p.Loss = 0
	return Env{Profile: p, OnionCryptoPerKB: 6 * time.Millisecond}
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

const experimentTimeout = 5 * time.Minute

func relayCfg(seed int64) relay.Config {
	return relay.Config{
		SetupWait:  300 * time.Millisecond,
		RoundWait:  300 * time.Millisecond,
		FlowTTL:    5 * time.Minute,
		GCInterval: 30 * time.Second,
		Rng:        rand.New(rand.NewSource(seed)),
	}
}

// SlicingFlow sets up one forwarding graph and measures setup latency and
// the goodput of a TransferBytes transfer.
func SlicingFlow(p Params) (FlowResult, error) {
	if err := p.normalize(); err != nil {
		return FlowResult{}, err
	}
	net := overlay.NewChanNetwork(p.Profile, rand.New(rand.NewSource(p.Seed)))
	defer net.Close()

	nRelays := p.L * p.DPrime
	relays := make([]wire.NodeID, nRelays)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	sources := make([]wire.NodeID, p.DPrime)
	for i := range sources {
		sources[i] = wire.NodeID(10_000 + i)
		if err := net.Attach(sources[i], func(wire.NodeID, []byte) {}); err != nil {
			return FlowResult{}, err
		}
	}
	nodes := make([]*relay.Node, 0, nRelays)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, id := range relays {
		n, err := relay.New(id, net, relayCfg(p.Seed+int64(id)))
		if err != nil {
			return FlowResult{}, err
		}
		nodes = append(nodes, n)
	}
	rng := rand.New(rand.NewSource(p.Seed + 99))
	g, err := core.Build(core.Spec{
		L: p.L, D: p.D, DPrime: p.DPrime,
		Relays: relays, Dest: relays[nRelays-1], Sources: sources,
		Recode: true, Scramble: true, Rng: rng,
	})
	if err != nil {
		return FlowResult{}, err
	}
	snd := source.New(net, g, source.Config{ChunkPayload: p.ChunkPayload}, rng)

	// Setup phase: measured end-to-end until every relay in the graph has
	// decoded its routing block (the paper places the receiver in the last
	// stage for this measurement so the number covers the whole graph).
	start := time.Now()
	if err := snd.Establish(); err != nil {
		return FlowResult{}, err
	}
	if !pollUntil(experimentTimeout, func() bool {
		for _, n := range nodes {
			if !n.Established(g.Flows[n.ID()]) {
				return false
			}
		}
		return true
	}) {
		return FlowResult{}, fmt.Errorf("%w: setup", ErrTimeout)
	}
	res := FlowResult{SetupTime: time.Since(start)}

	// Data phase.
	var dest *relay.Node
	for _, n := range nodes {
		if n.ID() == g.Dest {
			dest = n
		}
	}
	msg := make([]byte, p.TransferBytes)
	rng.Read(msg)
	t0 := time.Now()
	if err := snd.Send(msg); err != nil {
		return FlowResult{}, err
	}
	select {
	case m := <-dest.Received():
		el := time.Since(t0)
		if len(m.Data) != p.TransferBytes {
			return FlowResult{}, fmt.Errorf("perf: corrupted transfer (%d bytes)", len(m.Data))
		}
		res.Throughput = float64(p.TransferBytes) * 8 / el.Seconds()
	case <-time.After(experimentTimeout):
		return FlowResult{}, fmt.Errorf("%w: transfer", ErrTimeout)
	}
	return res, nil
}

// OnionFlow measures the baseline: a single onion circuit of L relays, with
// the last relay acting as the destination.
func OnionFlow(p Params) (FlowResult, error) {
	if err := p.normalize(); err != nil {
		return FlowResult{}, err
	}
	net := overlay.NewChanNetwork(p.Profile, rand.New(rand.NewSource(p.Seed)))
	defer net.Close()

	dir := onion.NewDirectory()
	kr := seededReader{rand.New(rand.NewSource(p.Seed + 1))}
	ids := make([]wire.NodeID, p.L)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	if err := dir.Generate(kr, 1024, ids...); err != nil {
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
		n.SetCryptoDelay(p.OnionCryptoPerKB)
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
	start := time.Now()
	c, err := snd.BuildCircuit(ids)
	if err != nil {
		return FlowResult{}, err
	}
	if !pollUntil(experimentTimeout, func() bool {
		for _, n := range nodes {
			if n.Counters().Get("setup_in") == 0 {
				return false
			}
		}
		return true
	}) {
		return FlowResult{}, fmt.Errorf("%w: onion setup", ErrTimeout)
	}
	res := FlowResult{SetupTime: time.Since(start)}

	msg := make([]byte, p.TransferBytes)
	rng.Read(msg)
	t0 := time.Now()
	if err := snd.Send(c, 1, msg); err != nil {
		return FlowResult{}, err
	}
	select {
	case m := <-dest.Received():
		el := time.Since(t0)
		if len(m.Data) != p.TransferBytes {
			return FlowResult{}, fmt.Errorf("perf: corrupted transfer")
		}
		res.Throughput = float64(p.TransferBytes) * 8 / el.Seconds()
	case <-time.After(experimentTimeout):
		return FlowResult{}, fmt.Errorf("%w: onion transfer", ErrTimeout)
	}
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
	need := sp.L * sp.DPrime
	if sp.PoolSize < need {
		return 0, fmt.Errorf("perf: pool %d too small for graph %d", sp.PoolSize, need)
	}
	net := overlay.NewChanNetwork(sp.Profile, rand.New(rand.NewSource(sp.Seed)))
	defer net.Close()

	pool := make([]wire.NodeID, sp.PoolSize)
	nodes := make([]*relay.Node, sp.PoolSize)
	for i := range pool {
		pool[i] = wire.NodeID(i + 1)
		n, err := relay.New(pool[i], net, relayCfg(sp.Seed+int64(i)))
		if err != nil {
			return 0, err
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	// Several flows may terminate at the same pool node, and a relay exposes
	// one Received channel. A dispatcher demultiplexes deliveries by flow-id
	// so concurrent measurements never steal each other's messages.
	var (
		dmu        sync.Mutex
		deliveries = make(map[wire.FlowID]chan relay.Message)
	)
	done := make(chan struct{})
	defer close(done)
	for _, n := range nodes {
		go func(n *relay.Node) {
			for {
				select {
				case m := <-n.Received():
					dmu.Lock()
					ch := deliveries[m.Flow]
					dmu.Unlock()
					if ch != nil {
						select {
						case ch <- m:
						default:
						}
					}
				case <-done:
					return
				}
			}
		}(n)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    float64
		firstErr error
	)
	for f := 0; f < sp.Flows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(sp.Seed + int64(f)*101))
			// Each flow picks its relays uniformly from the shared pool.
			perm := rng.Perm(sp.PoolSize)[:need]
			relaysF := make([]wire.NodeID, need)
			for i, pi := range perm {
				relaysF[i] = pool[pi]
			}
			srcs := make([]wire.NodeID, sp.DPrime)
			for i := range srcs {
				srcs[i] = wire.NodeID(100_000 + f*100 + i)
				if err := net.Attach(srcs[i], func(wire.NodeID, []byte) {}); err != nil {
					recordErr(&mu, &firstErr, err)
					return
				}
			}
			g, err := core.Build(core.Spec{
				L: sp.L, D: sp.D, DPrime: sp.DPrime,
				Relays: relaysF, Dest: relaysF[need-1], Sources: srcs,
				Recode: true, Scramble: true, Rng: rng,
			})
			if err != nil {
				recordErr(&mu, &firstErr, err)
				return
			}
			snd := source.New(net, g, source.Config{ChunkPayload: sp.ChunkPayload}, rng)
			if err := snd.Establish(); err != nil {
				recordErr(&mu, &firstErr, err)
				return
			}
			var dest *relay.Node
			for _, n := range nodes {
				if n.ID() == g.Dest {
					dest = n
				}
			}
			destFlow := g.Flows[g.Dest]
			inbox := make(chan relay.Message, 4)
			dmu.Lock()
			deliveries[destFlow] = inbox
			dmu.Unlock()
			if !pollUntil(experimentTimeout, func() bool { return dest.Established(destFlow) }) {
				recordErr(&mu, &firstErr, fmt.Errorf("%w: flow %d setup", ErrTimeout, f))
				return
			}
			msg := make([]byte, sp.TransferBytes)
			rng.Read(msg)
			t0 := time.Now()
			if err := snd.Send(msg); err != nil {
				recordErr(&mu, &firstErr, err)
				return
			}
			select {
			case m := <-inbox:
				if len(m.Data) != sp.TransferBytes {
					recordErr(&mu, &firstErr, fmt.Errorf("perf: flow %d corrupted", f))
					return
				}
				bps := float64(sp.TransferBytes) * 8 / time.Since(t0).Seconds()
				mu.Lock()
				total += bps
				mu.Unlock()
			case <-time.After(experimentTimeout):
				recordErr(&mu, &firstErr, fmt.Errorf("%w: flow %d transfer", ErrTimeout, f))
			}
		}(f)
	}
	wg.Wait()
	if firstErr != nil {
		return total, firstErr
	}
	return total, nil
}

func recordErr(mu *sync.Mutex, dst *error, err error) {
	mu.Lock()
	if *dst == nil {
		*dst = err
	}
	mu.Unlock()
}

// pollUntil is simnet.Eventually at the tight polling interval the
// throughput harnesses want (they time real transfers, so the wait must not
// quantize the measurement).
func pollUntil(timeout time.Duration, cond func() bool) bool {
	return simnet.Eventually(timeout, 200*time.Microsecond, cond)
}

type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = byte(s.r.Intn(256))
	}
	return len(b), nil
}
