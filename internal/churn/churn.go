// Package churn evaluates resilience to node failures, reproducing §8 of
// the paper: the analytic comparison of information slicing against onion
// routing with erasure codes (Eqs. 6-7, Fig. 16) and the experimental
// session-success comparison (Fig. 17) run over the real protocol stacks on
// a failure-injected overlay.
package churn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/onion"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// --- Analytic models (§8.1) -------------------------------------------------

// binom returns C(n, k).
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// StandardOnionSuccess is the success probability of a single onion path of
// L relays when each relay fails independently with probability p.
func StandardOnionSuccess(L int, p float64) float64 {
	return math.Pow(1-p, float64(L))
}

// OnionECSuccess implements Eq. 6: d' disjoint onion paths with the message
// erasure-coded into d-of-d' shards; the transfer succeeds when at least d
// whole paths survive. Redundancy lost to a failed path is gone.
func OnionECSuccess(L, d, dPrime int, p float64) float64 {
	pathOK := math.Pow(1-p, float64(L))
	s := 0.0
	for i := d; i <= dPrime; i++ {
		s += binom(dPrime, i) * math.Pow(pathOK, float64(i)) *
			math.Pow(1-pathOK, float64(dPrime-i))
	}
	return s
}

// SlicingSuccess implements Eq. 7: a stage succeeds when at least d of its
// d' nodes survive, and in-network regeneration (§4.4.1) restores full
// redundancy after every stage, so the transfer succeeds iff every stage
// succeeds.
func SlicingSuccess(L, d, dPrime int, p float64) float64 {
	stage := 0.0
	for i := d; i <= dPrime; i++ {
		stage += binom(dPrime, i) * math.Pow(1-p, float64(i)) *
			math.Pow(p, float64(dPrime-i))
	}
	return math.Pow(stage, float64(L))
}

// --- Experimental harness (§8.2, Fig. 17) -----------------------------------
//
// Every trial runs on a simnet virtual universe: the full protocol stacks
// (relays with their real timers, sources, onion circuits) execute over a
// deterministic event queue, so a trial that used to burn seconds of wall
// time waiting out delivery deadlines now completes in milliseconds, and a
// given (params, seed) pair always produces the same sessions.

// ExperimentParams configures one experimental point.
type ExperimentParams struct {
	L      int // path length (paper: 5)
	D      int // split factor (paper: 2)
	DPrime int // paths/stage width; redundancy R = (DPrime-D)/D

	// NodeFailProb is the probability that a relay fails at some uniformly
	// random point during the session (the p of §8.1, derived on PlanetLab
	// from perceived lifetimes).
	NodeFailProb float64

	// Messages is the number of messages making up the session; failures
	// are injected at message boundaries.
	Messages int

	// MessageBytes is the plaintext size per message.
	MessageBytes int

	Trials int
	Seed   int64
}

func (p *ExperimentParams) normalize() error {
	if p.L < 1 || p.D < 1 || p.DPrime < p.D || p.Trials < 1 {
		return fmt.Errorf("churn: invalid params %+v", *p)
	}
	if p.Messages == 0 {
		p.Messages = 6
	}
	if p.MessageBytes == 0 {
		p.MessageBytes = 512
	}
	if p.NodeFailProb < 0 || p.NodeFailProb > 1 {
		return errors.New("churn: bad failure probability")
	}
	return nil
}

// ExperimentResult is the fraction of sessions completing in full.
type ExperimentResult struct {
	Slicing       float64 // information slicing with regeneration
	OnionEC       float64 // onion routing + erasure codes across d' circuits
	StandardOnion float64 // single onion circuit
}

// RunExperiment measures session success rates of the three systems under
// identical failure schedules, Fig. 17 style. All three run their real
// protocol stacks over an in-memory overlay.
func RunExperiment(p ExperimentParams) (ExperimentResult, error) {
	if err := p.normalize(); err != nil {
		return ExperimentResult{}, err
	}
	// One directory for all trials — and memoized across experiments of the
	// same size: RSA keygen is by far the most expensive step, the
	// identities carry no per-trial state, and the key bits themselves only
	// provide layering semantics, not security.
	maxNodes := p.L*p.DPrime + 1
	dir, err := onionDirFor(maxNodes)
	if err != nil {
		return ExperimentResult{}, err
	}

	var res ExperimentResult
	for t := 0; t < p.Trials; t++ {
		seed := p.Seed + int64(t)*7919
		if slicingTrial(p, seed) {
			res.Slicing++
		}
		if onionTrial(p, seed, p.DPrime, dir) {
			res.OnionEC++
		}
		if onionTrial(p, seed, 0, dir) { // 0 = standard single circuit
			res.StandardOnion++
		}
	}
	n := float64(p.Trials)
	res.Slicing /= n
	res.OnionEC /= n
	res.StandardOnion /= n
	return res, nil
}

// failSchedule assigns each of n relays a failure message-index (or -1).
func failSchedule(n, messages int, p float64, rng *rand.Rand) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = -1
		if rng.Float64() < p {
			s[i] = rng.Intn(messages)
		}
	}
	return s
}

// onionDirCache memoizes one directory (ids 1..count); see onionDirFor.
var (
	onionDirMu    sync.Mutex
	onionDir      *onion.Directory
	onionDirCount int
)

// onionDirFor returns a directory holding RSA identities 1..n (at least),
// generating on a miss — sized a little past the request so differently
// sized experiments in one process share a single keygen. Key material is
// fixed (constant seed) rather than derived from the experiment seed: the
// identities carry no behavioral state, and a constant keeps each
// experiment's outcome a pure function of its own (params, seed) no matter
// which experiment warmed the cache.
func onionDirFor(n int) (*onion.Directory, error) {
	onionDirMu.Lock()
	defer onionDirMu.Unlock()
	if onionDir != nil && onionDirCount >= n {
		return onionDir, nil
	}
	gen := n
	if gen < 16 {
		gen = 16
	}
	dir := onion.NewDirectory()
	kr := seededReader{rand.New(rand.NewSource(15))}
	ids := make([]wire.NodeID, gen)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	// 1024-bit keys: the smallest size that fits an OAEP-SHA256 key wrap.
	if err := dir.Generate(kr, 1024, ids...); err != nil {
		return nil, err
	}
	onionDir, onionDirCount = dir, gen
	return dir, nil
}

// drainCount moves everything currently buffered on ch into *delivered and
// returns the updated count — the one non-blocking delivery counter every
// virtual harness in this package shares.
func drainCount[T any](ch <-chan T, delivered *int) int {
	for {
		select {
		case <-ch:
			*delivered++
		default:
			return *delivered
		}
	}
}

// simLink is the link shape every virtual trial uses: a small fixed one-way
// delay so packets interleave across stages the way a LAN's would.
func simLink() simnet.LinkProfile {
	return simnet.LinkProfile{Delay: 500 * time.Microsecond}
}

func relayCfg(seed int64, clk simnet.Clock) relay.Config {
	return relay.Config{
		SetupWait:  40 * time.Millisecond,
		RoundWait:  40 * time.Millisecond,
		FlowTTL:    time.Minute,
		GCInterval: time.Second,
		Rng:        rand.New(rand.NewSource(seed)),
		Clock:      clk,
	}
}

// controlRelayCfg is relayCfg with the live control plane on — the shared
// relay shape of every repair-capable virtual harness in this package.
func controlRelayCfg(seed int64, clk simnet.Clock) relay.Config {
	cfg := relayCfg(seed, clk)
	cfg.Heartbeat = 10 * time.Millisecond
	cfg.LivenessTimeout = 40 * time.Millisecond
	return cfg
}

// slicingTrial runs one full slicing session in virtual time and reports
// completion.
func slicingTrial(p ExperimentParams, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, seed+1, simLink())
	defer net.Close()

	nRelays := p.L * p.DPrime
	relays := make([]wire.NodeID, nRelays)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	sources := make([]wire.NodeID, p.DPrime)
	for i := range sources {
		sources[i] = wire.NodeID(1000 + i)
		if net.Attach(sources[i], func(wire.NodeID, []byte) {}) != nil {
			return false
		}
	}
	nodes := make([]*relay.Node, 0, nRelays)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, id := range relays {
		n, err := relay.New(id, net, relayCfg(seed+int64(id), clk))
		if err != nil {
			return false
		}
		nodes = append(nodes, n)
	}
	g, err := core.Build(core.Spec{
		L: p.L, D: p.D, DPrime: p.DPrime,
		Relays: relays, Dest: relays[0], Sources: sources,
		Recode: true, Scramble: true,
		Rng: rng,
	})
	if err != nil {
		return false
	}
	snd := source.New(net, g, source.Config{ChunkPayload: p.MessageBytes, Clock: clk}, rng)
	if snd.Establish() != nil {
		return false
	}
	// Let the graph settle before the session starts (paper: churn during
	// the transfer, not during setup).
	clk.AwaitCond(5*time.Second, func() bool {
		for _, n := range nodes {
			if !n.Established(g.Flows[n.ID()]) {
				return false
			}
		}
		return true
	})

	var dest *relay.Node
	for _, n := range nodes {
		if n.ID() == g.Dest {
			dest = n
		}
	}
	sched := failSchedule(nRelays, p.Messages, p.NodeFailProb, rng)
	delivered := 0
	drain := func() bool {
		return drainCount(dest.Received(), &delivered) >= p.Messages
	}
	msg := make([]byte, p.MessageBytes)
	for k := 0; k < p.Messages; k++ {
		for i, f := range sched {
			if f == k && relays[i] != g.Dest {
				net.Fail(relays[i])
			}
		}
		rng.Read(msg)
		if snd.Send(msg) != nil {
			return false
		}
		clk.RunFor(20 * time.Millisecond)
		// Drain as the session streams: the destination's Received channel
		// is bounded (256) and drops when full, so a long session must not
		// let deliveries pile up until the end.
		drain()
	}
	return clk.AwaitCond(sessionDeadline(p), drain)
}

// onionTrial runs an onion session in virtual time: dPrime > 0 circuits
// with erasure coding, or a single standard circuit when dPrime == 0.
func onionTrial(p ExperimentParams, seed int64, dPrime int, dir *onion.Directory) bool {
	rng := rand.New(rand.NewSource(seed + 13))
	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, seed+14, simLink())
	defer net.Close()

	paths := dPrime
	if paths == 0 {
		paths = 1
	}
	nRelays := p.L * paths
	kr := seededReader{rand.New(rand.NewSource(seed + 15))}
	ids := make([]wire.NodeID, nRelays+1) // + destination
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	nodes := make([]*onion.Node, 0, len(ids))
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, id := range ids {
		n, err := onion.NewNode(id, dir, net)
		if err != nil {
			return false
		}
		nodes = append(nodes, n)
	}
	dest := nodes[nRelays] // last id
	const senderID = 5000
	if net.Attach(senderID, func(wire.NodeID, []byte) {}) != nil {
		return false
	}
	snd := onion.NewSender(senderID, net, dir, rng, kr)
	snd.CellPayload = p.MessageBytes

	// Disjoint paths of L relays each, all terminating at the destination.
	circuitPaths := make([][]wire.NodeID, paths)
	for c := 0; c < paths; c++ {
		path := make([]wire.NodeID, 0, p.L+1)
		for h := 0; h < p.L; h++ {
			path = append(path, ids[c*p.L+h])
		}
		path = append(path, dest.ID())
		circuitPaths[c] = path
	}

	var mc *onion.MultiCircuit
	var single *onion.Circuit
	var err error
	if dPrime == 0 {
		single, err = snd.BuildCircuit(circuitPaths[0])
	} else {
		mc, err = snd.BuildMultiCircuit(circuitPaths, p.D)
	}
	if err != nil {
		return false
	}
	clk.RunFor(50 * time.Millisecond) // let setup settle

	sched := failSchedule(nRelays, p.Messages, p.NodeFailProb, rng)
	delivered := 0
	drain := func() bool {
		return drainCount(dest.Received(), &delivered) >= p.Messages
	}
	msg := make([]byte, p.MessageBytes)
	for k := 0; k < p.Messages; k++ {
		for i, f := range sched {
			if f == k {
				net.Fail(ids[i])
			}
		}
		rng.Read(msg)
		if dPrime == 0 {
			if snd.Send(single, uint64(k+1), msg) != nil {
				return false
			}
		} else {
			if snd.SendErasure(mc, uint64(k+1), msg) != nil {
				return false
			}
		}
		clk.RunFor(20 * time.Millisecond)
		drain() // bounded Received channel; see slicingTrial
	}
	return clk.AwaitCond(sessionDeadline(p), drain)
}

func sessionDeadline(p ExperimentParams) time.Duration {
	return time.Second + time.Duration(p.Messages)*150*time.Millisecond
}

// seededReader adapts math/rand to io.Reader for deterministic experiments.
type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = byte(s.r.Intn(256))
	}
	return len(b), nil
}
