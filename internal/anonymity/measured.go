package anonymity

import (
	"fmt"
	"math/rand"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Measured anonymity: instead of assuming every compromised relay observes
// its stage (the Monte-Carlo model in Simulate), host the slicing graph on
// a full-size simnet universe and let the attacker see only the slices
// that are actually DELIVERED. Each trial samples L stages of d' relays
// out of the N-node overlay, runs the complete-bipartite slice forwarding
// over the virtual network, and derives hasMal/fullMal per stage from the
// receipts of compromised relays. With perfect links this reproduces the
// analytic curves (Figs. 7–10); with loss or churn the attacker's view
// degrades and measured anonymity exceeds the analytic bound — the gap the
// paper's formulas cannot express.
//
// A node's allegiance is a fixed property of the overlay, not of the
// trial: node id is compromised iff splitmix64(Seed, id) falls below F.
// Trials sample disjoint relay sets from the same population, exactly how
// repeated path setups would meet the same adversary.

// MeasuredParams configures one measured sweep point.
type MeasuredParams struct {
	Params

	Seed int64
	// Loss is the per-link slice drop probability.
	Loss float64
	// ChurnDown fails each sampled relay for the trial with this
	// probability before slices flow — session churn hitting path setup.
	ChurnDown float64
}

// MeasuredResult extends Result with delivery accounting across all
// trials: Sent = Deliveries + Lost.
type MeasuredResult struct {
	Result
	Sent       int64 // slices sent
	Deliveries int64 // slices received
	Lost       int64 // slices dropped (loss, dead relays)
}

// measuredEval is the reusable N-node evaluation universe.
type measuredEval struct {
	clk *simnet.VirtualClock
	net *simnet.SimNet
	p   *MeasuredParams

	// Per-trial routing state, written by the driver while the clock is
	// idle, read by handlers during the run.
	trial  uint32
	stages [][]wire.NodeID // stages[l] = members of stage l+1 (0-indexed)

	// recvTrial[id-1] = latest trial in which node id received a slice.
	recvTrial []uint32

	sent, received int64 // slices, across trials
}

func (e *measuredEval) compromised(id wire.NodeID) bool {
	const thresholdScale = float64(1 << 63)
	h := splitmix64(uint64(e.p.Seed)*0x9e3779b97f4a7c15 ^ uint64(id)*0xbf58476d1ce4e5b9)
	return float64(h>>1) < e.p.F*thresholdScale
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// handler is every overlay node's slice receiver: record the receipt and,
// on first receipt of the trial, forward one slice to each next-stage
// relay (the complete-bipartite exchange of the slicing graph).
func (e *measuredEval) handler(self wire.NodeID) func(wire.NodeID, []byte) {
	idx := int(self) - 1
	return func(_ wire.NodeID, data []byte) {
		e.received++
		if e.recvTrial[idx] == e.trial {
			return // duplicate slice this trial; already forwarded
		}
		e.recvTrial[idx] = e.trial
		l := int(data[0]) // stage just reached, 1-based
		if l >= len(e.stages) {
			return
		}
		e.send(self, e.stages[l], byte(l+1))
	}
}

// send sends one slice bound for stage from self to each relay of to.
func (e *measuredEval) send(self wire.NodeID, to []wire.NodeID, stage byte) {
	slice := []byte{stage}
	for _, nb := range to {
		_ = e.net.Send(self, nb, slice)
		e.sent++
	}
}

// SimulateMeasured runs the measured-anonymity evaluation.
func SimulateMeasured(mp MeasuredParams) (MeasuredResult, error) {
	if err := mp.Params.normalize(); err != nil {
		return MeasuredResult{}, err
	}
	if mp.Loss < 0 || mp.Loss > 1 || mp.ChurnDown < 0 || mp.ChurnDown > 1 {
		return MeasuredResult{}, fmt.Errorf("%w: loss=%v churn=%v", ErrParams, mp.Loss, mp.ChurnDown)
	}
	p := &mp.Params

	clk := simnet.NewVirtualClock()
	e := &measuredEval{
		clk: clk,
		net: simnet.NewSimNet(clk, mp.Seed, simnet.LinkProfile{
			Delay: 200 * time.Microsecond,
			Loss:  mp.Loss,
		}),
		p:         &mp,
		recvTrial: make([]uint32, p.N),
	}
	e.net.SetPooledPayloads(true)
	for i := 1; i <= p.N; i++ {
		id := wire.NodeID(i)
		if err := e.net.Attach(id, e.handler(id)); err != nil {
			return MeasuredResult{}, err
		}
	}

	var res MeasuredResult
	hasMal := make([]bool, p.L+1)
	fullMal := make([]bool, p.L+1)
	for t := 0; t < p.Trials; t++ {
		e.trial = uint32(t + 1)
		rng := rand.New(rand.NewSource(int64(splitmix64(uint64(mp.Seed) + uint64(t)*0x9e3779b97f4a7c15))))

		src, stages := e.sampleGraph(rng)
		destStage := 1 + rng.Intn(p.L)
		destPos := rng.Intn(p.DPrime)
		// The destination is forced honest (a compromised receiver is
		// trivially exposed, as in the paper's formulas).
		for e.compromised(stages[destStage-1][destPos]) {
			stages[destStage-1][destPos] = e.resample(rng, src, stages)
		}
		e.stages = stages

		// Session churn: some sampled relays are simply gone when the
		// path is cut. They receive nothing and forward nothing.
		var down []wire.NodeID
		if mp.ChurnDown > 0 {
			for l := range stages {
				for _, id := range stages[l] {
					if rng.Float64() < mp.ChurnDown {
						e.net.Fail(id)
						down = append(down, id)
					}
				}
			}
		}

		// Inject stage-1 slices from the source and run the exchange to
		// quiescence.
		e.send(src, stages[0], 1)
		clk.RunUntilIdle()

		for _, id := range down {
			e.net.Revive(id)
		}

		// The attacker's observed view: a compromised relay contributes
		// to its stage only if a slice actually reached it.
		anyMal := false
		for l := 1; l <= p.L; l++ {
			cnt := 0
			for _, id := range stages[l-1] {
				if e.compromised(id) && e.recvTrial[id-1] == e.trial {
					cnt++
				}
			}
			hasMal[l] = cnt > 0
			fullMal[l] = cnt >= p.D
			anyMal = anyMal || hasMal[l]
		}

		srcAnon, sc1 := sourceAnonymity(p, hasMal, fullMal, anyMal)
		dstAnon, dc1 := destAnonymity(p, hasMal, fullMal, anyMal, destStage)
		res.Source += srcAnon
		res.Destination += dstAnon
		if sc1 {
			res.SourceCase1++
		}
		if dc1 {
			res.DestCase1++
		}
	}
	// A send to a down relay is lost without counting as a packet, so
	// receipts are counted where they land.
	res.Sent, res.Deliveries, res.Lost = e.sent, e.received, e.net.Counters().Get("lost")
	n := float64(p.Trials)
	res.Source /= n
	res.Destination /= n
	res.SourceCase1 /= n
	res.DestCase1 /= n
	e.net.Close()
	return res, nil
}

// sampleGraph draws a source plus L stages of d' distinct relays.
func (e *measuredEval) sampleGraph(rng *rand.Rand) (wire.NodeID, [][]wire.NodeID) {
	p := e.p
	used := make(map[wire.NodeID]bool, p.L*p.DPrime+1)
	pick := func() wire.NodeID {
		for {
			id := wire.NodeID(1 + rng.Intn(p.N))
			if !used[id] {
				used[id] = true
				return id
			}
		}
	}
	src := pick()
	stages := make([][]wire.NodeID, p.L)
	for l := range stages {
		stages[l] = make([]wire.NodeID, p.DPrime)
		for i := range stages[l] {
			stages[l][i] = pick()
		}
	}
	return src, stages
}

// resample replaces one slot with a fresh node not already in the graph.
func (e *measuredEval) resample(rng *rand.Rand, src wire.NodeID, stages [][]wire.NodeID) wire.NodeID {
	used := map[wire.NodeID]bool{src: true}
	for _, st := range stages {
		for _, id := range st {
			used[id] = true
		}
	}
	for {
		id := wire.NodeID(1 + rng.Intn(e.p.N))
		if !used[id] {
			return id
		}
	}
}
