package eval

// --- Live-repair experiment (Fig. 19, an extension of Fig. 17) ---------------
//
// Fig. 17 measures how far passive redundancy carries a session under
// churn: failures are masked while at most d'-d relays per stage are down,
// and the session dies the moment any stage drops below d. The live-repair
// experiment asks the next question: with the control plane on — heartbeat
// detection, ParentDown reports, source-driven splices — does the *same*
// failure schedule that kills a redundancy-only session leave a repaired
// one streaming? Each flow loses KillPerFlow relays of one stage,
// sequentially, which exceeds the redundancy budget by construction when
// KillPerFlow > DPrime-D.
//
// All flows of a trial share one testbed, kills land at scripted virtual
// instants, and every settle window is an exact virtual wait, so a trial is
// replayable from its seed.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/metrics"
	"infoslicing/internal/wire"
)

// LiveRepairParams configures one experimental point.
type LiveRepairParams struct {
	L, D, DPrime int
	Flows        int // concurrent flows, disjoint relay sets
	Messages     int // messages per flow
	MessageBytes int
	KillPerFlow  int // same-stage relays killed per flow over the session
	Repair       bool
	Trials       int
	Seed         int64
}

func (p *LiveRepairParams) normalize() error {
	if p.L < 2 || p.D < 1 || p.DPrime < p.D || p.Trials < 1 || p.Flows < 1 {
		return fmt.Errorf("eval: invalid live-repair params %+v", *p)
	}
	if p.Messages == 0 {
		p.Messages = 6
	}
	if p.MessageBytes == 0 {
		p.MessageBytes = 512
	}
	if p.KillPerFlow == 0 {
		p.KillPerFlow = p.DPrime - p.D + 1 // one past the redundancy budget
	}
	if p.KillPerFlow >= p.DPrime {
		return fmt.Errorf("eval: KillPerFlow %d needs a surviving relay per stage (d'=%d)",
			p.KillPerFlow, p.DPrime)
	}
	return nil
}

// LiveRepairResult aggregates over flows and trials.
type LiveRepairResult struct {
	Delivered float64 // fraction of sent messages decoded end-to-end
	Splices   int64   // splices injected by the repair loops
	Reports   int64   // authenticated failure reports consumed
}

// RunLiveRepair measures end-to-end delivery under a same-stage failure
// schedule with the control plane in the given mode. Repair=false runs
// detection-only (reports flow, nothing is spliced), so the two arms differ
// in exactly one thing: whether the splice path is allowed to act. A trial
// that cannot be set up is an error, not an undelivered session.
func RunLiveRepair(p LiveRepairParams) (LiveRepairResult, error) {
	if err := p.normalize(); err != nil {
		return LiveRepairResult{}, err
	}
	var res LiveRepairResult
	var delivered, sent int
	for trial := 0; trial < p.Trials; trial++ {
		flows, err := liveRepairTrial(p, p.Seed+int64(trial)*104729)
		if err != nil {
			return LiveRepairResult{}, fmt.Errorf("eval: trial %d: %w", trial, err)
		}
		for _, fl := range flows {
			delivered += min(fl.delivered, fl.sent) // duplicates cannot mint credit
			sent += fl.sent
			st := fl.snd.Counters()
			res.Splices += st.Get("repair_splices")
			res.Reports += st.Get("repair_reports")
		}
	}
	if sent > 0 {
		res.Delivered = float64(delivered) / float64(sent)
	}
	return res, nil
}

// liveRepairTrial runs every flow of one trial on a shared testbed and
// returns the flows, drained.
func liveRepairTrial(p LiveRepairParams, seed int64) ([]*flow, error) {
	tb := newTestbed(seed, simLink)
	defer tb.close()
	rngs := make([]*rand.Rand, p.Flows)
	victims := make([][]wire.NodeID, p.Flows)
	for f := range rngs {
		fseed := seed + int64(f)*7919
		rngs[f] = rand.New(rand.NewSource(fseed))
		base := wire.NodeID(1 + f*1000)
		relays, spares := nodeIDs(base, p.L*p.DPrime), nodeIDs(base+500, p.KillPerFlow+1)
		if err := tb.addRelays(relays, controlRelay, fseed); err != nil {
			return nil, err
		}
		if err := tb.addRelays(spares, controlRelay, fseed); err != nil {
			return nil, err
		}
		fl, err := tb.dial(core.Spec{
			L: p.L, D: p.D, DPrime: p.DPrime,
			Relays: relays, Dest: relays[0], Sources: nodeIDs(wire.NodeID(500_000+f*100), p.DPrime),
			Recode: true, Scramble: true, Rng: rngs[f],
		}, p.MessageBytes)
		if err != nil {
			return nil, err
		}
		// Chosen before repair can change the graph; L ≥ 2 leaves a stage
		// without the destination.
		victims[f] = fl.victims(p.KillPerFlow)
		if p.Repair {
			fl.spares = spares
		}
		if err := fl.start(); err != nil {
			return nil, err
		}
	}
	// Churn hits the transfer, not the set-up (§8).
	if !tb.established(10 * time.Second) {
		return nil, errors.New("graphs never established")
	}

	// Kills are spread across the message stream, one victim per flow at
	// each kill point, each followed by a window in which detection (and
	// repair, when on) can run.
	killAt := make(map[int]int) // message index -> victim index
	for k := 0; k < p.KillPerFlow; k++ {
		killAt[(k+1)*p.Messages/(p.KillPerFlow+1)] = k
	}
	msg := make([]byte, p.MessageBytes)
	for i := 0; i < p.Messages; i++ {
		if k, ok := killAt[i]; ok {
			for f := range tb.flows {
				tb.Net.Fail(victims[f][k])
			}
			if p.Repair {
				tb.Await(5*time.Second, func() bool {
					for _, fl := range tb.flows {
						if fl.snd.Counters().Get("repair_splices") < int64(k+1) {
							return false
						}
					}
					return true
				})
				// Let the freshest replacement establish and neighbors patch.
				tb.Clk.RunFor(100 * time.Millisecond)
			} else {
				tb.Clk.RunFor(200 * time.Millisecond)
			}
		}
		for f, fl := range tb.flows {
			rngs[f].Read(msg)
			_ = fl.send(msg) // a refused message is not counted as sent
		}
		// Per-message delivery window, in virtual time.
		tb.Await(1500*time.Millisecond, tb.caughtUp)
	}
	tb.drain()
	return tb.flows, nil
}

// RepairSweep is Fig. 19: the delivery of repair and of detection-only (and
// the splices repair made) when each of two flows (L=3, d=2, d'=3, six
// 512-byte messages, two trials) loses 1..d'-1 relays of one stage.
func RepairSweep(seed int64) ([]*metrics.Series, error) {
	const l, d, dp = 3, 2, 3
	rep, det, spl := &metrics.Series{Name: "repair"}, &metrics.Series{Name: "detection-only"}, &metrics.Series{Name: "splices"}
	for kills := 1; kills < dp; kills++ {
		p := LiveRepairParams{
			L: l, D: d, DPrime: dp,
			Flows: 2, Messages: 6, MessageBytes: 512,
			KillPerFlow: kills, Trials: 2, Seed: seed,
		}
		p.Repair = true
		on, err := RunLiveRepair(p)
		if err != nil {
			return nil, err
		}
		p.Repair = false
		off, err := RunLiveRepair(p)
		if err != nil {
			return nil, err
		}
		rep.Add(float64(kills), on.Delivered)
		det.Add(float64(kills), off.Delivered)
		spl.Add(float64(kills), float64(on.Splices))
	}
	return []*metrics.Series{rep, det, spl}, nil
}

// --- The canonical scripted scenario -----------------------------------------

// scenario hosts the stack of the scripted scenarios and returns its flow,
// not yet started, so a scenario can shape links first: one L=3, d=2 flow
// over relays 1..3d' with the control plane on, sources from 900, and d'
// spares from 500 that its repair loop splices in when repair is on.
func (tb *testbed) scenario(seed int64, dPrime int, repair bool) (*flow, error) {
	relays, spares := nodeIDs(1, 3*dPrime), nodeIDs(500, dPrime)
	if err := tb.addRelays(relays, controlRelay, seed); err != nil {
		return nil, err
	}
	if err := tb.addRelays(spares, controlRelay, seed); err != nil {
		return nil, err
	}
	fl, err := tb.dial(core.Spec{
		L: 3, D: 2, DPrime: dPrime,
		Relays: relays, Dest: relays[0], Sources: nodeIDs(900, dPrime),
		Recode: true, Scramble: true, Rng: rand.New(rand.NewSource(seed)),
	}, 256)
	if err != nil {
		return nil, err
	}
	if repair {
		fl.spares = spares
	}
	return fl, nil
}

// CanonicalScenarioResult is what one run of the canonical scripted churn
// scenario produced.
type CanonicalScenarioResult struct {
	Delivered, Sent int
	Splices         int64
	Reports         int64
	Trace           string
	VirtualElapsed  time.Duration
}

// RunCanonicalScenario executes the repository's reference scripted churn
// scenario: a 3×3 graph (d=2) with the control plane on, streaming eight
// messages on a fixed 100ms virtual cadence while two same-stage relays are
// killed at scripted instants that land mid-stream. With repair on, the
// splice path must carry the session past both kills; with repair off the
// second kill exceeds the redundancy budget for good.
//
// Everything — message times, kill times, link delays, every RNG — derives
// from the seed, so two runs with the same seed produce byte-identical
// delivery traces. The root-level determinism gate pins exactly that.
func RunCanonicalScenario(seed int64, repair bool) (CanonicalScenarioResult, error) {
	tb := newTestbed(seed, simLink)
	defer tb.close()
	tb.Net.EnableTrace()
	fl, err := tb.scenario(seed, 3, repair)
	if err != nil {
		return CanonicalScenarioResult{}, err
	}
	return tb.canonical(seed, fl)
}

// canonical runs the canonical scenario on tb's scenario flow fl.
func (tb *testbed) canonical(seed int64, fl *flow) (CanonicalScenarioResult, error) {
	const (
		messages = 8
		cadence  = 100 * time.Millisecond
		start    = 200 * time.Millisecond
	)
	if err := fl.start(); err != nil {
		return CanonicalScenarioResult{}, err
	}
	if !tb.established(5 * time.Second) {
		return CanonicalScenarioResult{}, errors.New("eval: canonical scenario never established")
	}
	victims := fl.victims(2)
	if victims == nil {
		return CanonicalScenarioResult{}, errors.New("eval: no same-stage victims")
	}
	// Kills land mid-stream, between message sends, at fixed virtual times.
	tb.KillAt(start+2*cadence+50*time.Millisecond, victims[0])
	tb.KillAt(start+5*cadence+50*time.Millisecond, victims[1])

	msgRng := rand.New(rand.NewSource(seed + 99))
	msg := make([]byte, 256)
	for i := 0; i < messages; i++ {
		tb.Run(start + time.Duration(i)*cadence)
		msgRng.Read(msg)
		if err := fl.send(msg); err != nil {
			return CanonicalScenarioResult{}, err
		}
	}
	// Let the tail of the stream settle: either everything decodes or the
	// virtual deadline expires.
	tb.Await(3*time.Second, tb.caughtUp)
	// Drain to a fixed virtual horizon past the await: AwaitCond stops at
	// the event that made its condition true, possibly mid-instant, so the
	// trace ends at a fixed window of virtual time instead.
	tb.Run(tb.Elapsed() + 100*time.Millisecond)
	tb.drain()
	st := fl.snd.Counters()
	return CanonicalScenarioResult{
		Delivered:      fl.delivered,
		Sent:           fl.sent,
		Splices:        st.Get("repair_splices"),
		Reports:        st.Get("repair_reports"),
		Trace:          tb.Net.TraceString(),
		VirtualElapsed: tb.Elapsed(),
	}, nil
}
