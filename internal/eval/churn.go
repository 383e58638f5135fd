package eval

// §8: the analytic comparison of information slicing against onion routing
// with erasure codes (Eqs. 6-7, Fig. 16) and the experimental
// session-success comparison (Fig. 17) of the real protocol stacks under
// failure injection.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/metrics"
	"infoslicing/internal/onion"
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

// AnalyticSweep is Fig. 16 at node failure probability p: the success of
// slicing and of onion+EC (L=5, d=2) at redundancy R = 0, 0.5, ..., 5.
func AnalyticSweep(p float64) []*metrics.Series {
	const l, d = 5, 2
	sl, ec := &metrics.Series{Name: "slicing"}, &metrics.Series{Name: "onion+EC"}
	for dp := d; dp <= d*6; dp++ {
		r := float64(dp-d) / float64(d)
		sl.Add(r, SlicingSuccess(l, d, dp, p))
		ec.Add(r, OnionECSuccess(l, d, dp, p))
	}
	return []*metrics.Series{sl, ec}
}

// --- Experimental harness (§8.2, Fig. 17) -----------------------------------

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
		return fmt.Errorf("eval: invalid params %+v", *p)
	}
	if p.Messages == 0 {
		p.Messages = 6
	}
	if p.MessageBytes == 0 {
		p.MessageBytes = 512
	}
	if p.NodeFailProb < 0 || p.NodeFailProb > 1 {
		return errors.New("eval: bad failure probability")
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
// identical failure schedules, Fig. 17 style. Each session runs its real
// protocol stack in its own simnet universe. A session that cannot be set
// up is an error, not a failed session.
func RunExperiment(p ExperimentParams) (ExperimentResult, error) {
	if err := p.normalize(); err != nil {
		return ExperimentResult{}, err
	}
	var res ExperimentResult
	for t := 0; t < p.Trials; t++ {
		seed := p.Seed + int64(t)*7919
		for _, arm := range []struct {
			ok  *float64
			run func() (bool, error)
		}{
			{&res.Slicing, func() (bool, error) { return slicingTrial(p, seed) }},
			{&res.OnionEC, func() (bool, error) { return onionTrial(p, seed, p.DPrime) }},
			{&res.StandardOnion, func() (bool, error) { return onionTrial(p, seed, 0) }}, // 0 = one circuit
		} {
			ok, err := arm.run()
			if err != nil {
				return ExperimentResult{}, fmt.Errorf("eval: trial %d: %w", t, err)
			}
			if ok {
				*arm.ok++
			}
		}
	}
	n := float64(p.Trials)
	res.Slicing /= n
	res.OnionEC /= n
	res.StandardOnion /= n
	return res, nil
}

// ChurnSweep is Fig. 17: the session success of the three systems (L=5,
// d=2, four 512-byte messages per session) at redundancy R = 0, 0.5, ..., 2,
// with each relay failing with probability p.
func ChurnSweep(trials int, p float64, seed int64) ([]*metrics.Series, error) {
	const l, d = 5, 2
	sl, ec, so := &metrics.Series{Name: "slicing"}, &metrics.Series{Name: "onion+EC"}, &metrics.Series{Name: "std-onion"}
	for dp := d; dp <= d*3; dp++ {
		res, err := RunExperiment(ExperimentParams{
			L: l, D: d, DPrime: dp,
			NodeFailProb: p, Trials: trials, Seed: seed,
			Messages: 4, MessageBytes: 512,
		})
		if err != nil {
			return nil, err
		}
		r := float64(dp-d) / float64(d)
		sl.Add(r, res.Slicing)
		ec.Add(r, res.OnionEC)
		so.Add(r, res.StandardOnion)
	}
	return []*metrics.Series{sl, ec, so}, nil
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

// slicingTrial runs one slicing session and reports whether it completed.
func slicingTrial(p ExperimentParams, seed int64) (bool, error) {
	rng := rand.New(rand.NewSource(seed))
	tb := newTestbed(seed+1, simLink)
	defer tb.close()
	relays := nodeIDs(1, p.L*p.DPrime)
	if err := tb.addRelays(relays, churnRelay, seed); err != nil {
		return false, err
	}
	fl, err := tb.dial(core.Spec{
		L: p.L, D: p.D, DPrime: p.DPrime,
		Relays: relays, Dest: relays[0], Sources: nodeIDs(1000, p.DPrime),
		Recode: true, Scramble: true, Rng: rng,
	}, p.MessageBytes)
	if err != nil {
		return false, err
	}
	if err := fl.snd.Establish(); err != nil {
		return false, err
	}
	// Churn hits the transfer, not the set-up (§8).
	if !tb.established(5 * time.Second) {
		return false, errors.New("slicing graph never established")
	}

	sched := failSchedule(len(relays), p.Messages, p.NodeFailProb, rng)
	msg := make([]byte, p.MessageBytes)
	for k := 0; k < p.Messages; k++ {
		for i, f := range sched {
			if f == k && relays[i] != fl.g.Dest {
				tb.Net.Fail(relays[i])
			}
		}
		rng.Read(msg)
		if fl.send(msg) != nil {
			return false, nil
		}
		tb.Clk.RunFor(20 * time.Millisecond)
		tb.drain()
	}
	return tb.Await(sessionDeadline(p), tb.caughtUp), nil
}

// onionTrial runs one onion session — dPrime > 0 circuits with erasure
// coding, or a single standard circuit when dPrime == 0 — and reports
// whether it completed.
func onionTrial(p ExperimentParams, seed int64, dPrime int) (bool, error) {
	rng := rand.New(rand.NewSource(seed + 13))
	tb := newTestbed(seed+14, simLink)
	defer tb.close()
	paths := max(dPrime, 1)
	nRelays := p.L * paths
	nodes, err := tb.addOnions(nodeIDs(1, nRelays+1)) // + destination
	if err != nil {
		return false, err
	}
	dest := nodes[nRelays]
	snd, err := tb.onionSender(5000, rng, seed+15)
	if err != nil {
		return false, err
	}
	snd.CellPayload = p.MessageBytes

	// Disjoint paths of L relays each, all terminating at the destination.
	circuitPaths := make([][]wire.NodeID, paths)
	for c := range circuitPaths {
		circuitPaths[c] = append(nodeIDs(wire.NodeID(1+c*p.L), p.L), dest.ID())
	}
	var mc *onion.MultiCircuit
	var single *onion.Circuit
	if dPrime == 0 {
		single, err = snd.BuildCircuit(circuitPaths[0])
	} else {
		mc, err = snd.BuildMultiCircuit(circuitPaths, p.D)
	}
	if err != nil {
		return false, err
	}
	tb.Clk.RunFor(50 * time.Millisecond) // let setup settle

	sched := failSchedule(nRelays, p.Messages, p.NodeFailProb, rng)
	delivered := 0
	done := func() bool {
		var m onion.Message
		for recv(dest.Received(), &m) {
			delivered++
		}
		return delivered >= p.Messages
	}
	msg := make([]byte, p.MessageBytes)
	for k := 0; k < p.Messages; k++ {
		for i, f := range sched {
			if f == k {
				tb.Net.Fail(nodes[i].ID())
			}
		}
		rng.Read(msg)
		if dPrime == 0 {
			err = snd.Send(single, uint64(k+1), msg)
		} else {
			err = snd.SendErasure(mc, uint64(k+1), msg)
		}
		if err != nil {
			return false, nil
		}
		tb.Clk.RunFor(20 * time.Millisecond)
		done() // the destination's channel is bounded; see testbed.drain
	}
	return tb.Await(sessionDeadline(p), done), nil
}

func sessionDeadline(p ExperimentParams) time.Duration {
	return time.Second + time.Duration(p.Messages)*150*time.Millisecond
}
