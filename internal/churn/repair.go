package churn

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// --- Live-repair experiment (Fig. 17 extension) ------------------------------
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
// The whole experiment runs in virtual time: all flows of a trial share one
// simnet universe, kills land at scripted virtual instants, and the
// "settle" windows that used to be wall-clock sleeps are now exact virtual
// waits — a trial that took seconds of real time completes in milliseconds
// and is replayable from its seed.

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
		return fmt.Errorf("churn: invalid live-repair params %+v", *p)
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
		return fmt.Errorf("churn: KillPerFlow %d needs a surviving relay per stage (d'=%d)",
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
// in exactly one thing: whether the splice path is allowed to act.
func RunLiveRepair(p LiveRepairParams) (LiveRepairResult, error) {
	if err := p.normalize(); err != nil {
		return LiveRepairResult{}, err
	}
	var delivered, sent, splices, reports int64
	for trial := 0; trial < p.Trials; trial++ {
		seed := p.Seed + int64(trial)*104729
		d, s, sp, rp := liveRepairTrial(p, seed)
		delivered += d
		sent += s
		splices += sp
		reports += rp
	}
	res := LiveRepairResult{
		Splices: splices,
		Reports: reports,
	}
	if sent > 0 {
		res.Delivered = float64(delivered) / float64(sent)
	}
	return res, nil
}

// liveFlow is one flow's stack inside a live-repair trial.
type liveFlow struct {
	rng       *rand.Rand
	snd       *source.Sender
	eps       *source.Endpoints
	g         *core.Graph
	dest      *relay.Node
	victims   []wire.NodeID
	killed    int
	sent      int
	delivered int
}

func (fl *liveFlow) drain() {
	drainCount(fl.dest.Received(), &fl.delivered)
}

// liveRepairTrial runs every flow of one trial on a shared virtual
// universe and returns (delivered, sent, splices, reports).
func liveRepairTrial(p LiveRepairParams, seed int64) (int64, int64, int64, int64) {
	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, seed, simLink())
	defer net.Close()

	var nodes []*relay.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	flows := make([]*liveFlow, 0, p.Flows)
	for f := 0; f < p.Flows; f++ {
		fseed := seed + int64(f)*7919
		rng := rand.New(rand.NewSource(fseed))
		base := wire.NodeID(1 + f*1000)
		relays := make([]wire.NodeID, p.L*p.DPrime)
		for i := range relays {
			relays[i] = base + wire.NodeID(i)
		}
		spares := make([]wire.NodeID, p.KillPerFlow+1)
		for i := range spares {
			spares[i] = base + 500 + wire.NodeID(i)
		}
		srcIDs := make([]wire.NodeID, p.DPrime)
		for i := range srcIDs {
			srcIDs[i] = wire.NodeID(500_000 + f*100 + i)
		}
		for _, id := range append(append([]wire.NodeID(nil), relays...), spares...) {
			n, err := relay.New(id, net, controlRelayCfg(fseed+int64(id), clk))
			if err != nil {
				return 0, 0, 0, 0
			}
			nodes = append(nodes, n)
		}
		eps, err := source.AttachEndpoints(net, srcIDs)
		if err != nil {
			return 0, 0, 0, 0
		}
		defer eps.Close()
		g, err := core.Build(core.Spec{
			L: p.L, D: p.D, DPrime: p.DPrime,
			Relays: relays, Dest: relays[0], Sources: srcIDs,
			Recode: true, Scramble: true,
			Rng: rng,
		})
		if err != nil {
			return 0, 0, 0, 0
		}
		snd := source.New(net, g, source.Config{ChunkPayload: p.MessageBytes, Clock: clk}, rng)
		defer snd.StopRepair()
		fl := &liveFlow{rng: rng, snd: snd, eps: eps, g: g}
		for _, n := range nodes {
			if n.ID() == g.Dest {
				fl.dest = n
			}
		}
		// Same-stage victims, chosen before repair can mutate the graph; a
		// stage that does not hold the destination always exists (L ≥ 2).
		for l := 1; l <= g.L; l++ {
			if g.DestStage == l {
				continue
			}
			fl.victims = append([]wire.NodeID(nil), g.Stages[l-1][:p.KillPerFlow]...)
			break
		}
		rcfg := source.RepairConfig{Heartbeat: 10 * time.Millisecond}
		if p.Repair {
			var pickMu sync.Mutex
			used := map[wire.NodeID]bool{}
			rcfg.Pick = func(exclude func(wire.NodeID) bool) (wire.NodeID, bool) {
				pickMu.Lock()
				defer pickMu.Unlock()
				for _, id := range spares {
					if !used[id] && !exclude(id) {
						used[id] = true
						return id, true
					}
				}
				return 0, false
			}
		}
		flows = append(flows, fl)
		if err := snd.Establish(); err != nil {
			return 0, 0, 0, 0
		}
		if err := snd.StartRepair(eps, rcfg); err != nil {
			return 0, 0, 0, 0
		}
	}

	// Failures are injected mid-transfer, not during setup (§8): wait for
	// every graph to come up before the sessions start.
	established := clk.AwaitCond(10*time.Second, func() bool {
		for _, n := range nodes {
			for _, fl := range flows {
				if f, ok := fl.g.Flows[n.ID()]; ok && !n.Established(f) {
					return false
				}
			}
		}
		return true
	})
	if !established {
		return 0, 0, 0, 0
	}

	// The session: kills are spread across the message stream, one victim
	// per flow at each kill point, with a settle window after each so
	// detection (and repair, when enabled) can run — the paper's "failures
	// during the transfer, not during setup".
	killAt := make(map[int]int) // message index -> victim index
	for k := 0; k < p.KillPerFlow; k++ {
		killAt[(k+1)*p.Messages/(p.KillPerFlow+1)] = k
	}
	msg := make([]byte, p.MessageBytes)
	for i := 0; i < p.Messages; i++ {
		if k, ok := killAt[i]; ok {
			for _, fl := range flows {
				if k < len(fl.victims) {
					net.Fail(fl.victims[k])
					fl.killed++
				}
			}
			if p.Repair {
				clk.AwaitCond(5*time.Second, func() bool {
					for _, fl := range flows {
						if fl.snd.Counters().Get("repair_splices") < int64(fl.killed) {
							return false
						}
					}
					return true
				})
				// Let the freshest replacement establish and neighbors patch.
				clk.RunFor(100 * time.Millisecond)
			} else {
				clk.RunFor(200 * time.Millisecond)
			}
		}
		for _, fl := range flows {
			fl.rng.Read(msg)
			if fl.snd.Send(msg) != nil {
				continue
			}
			fl.sent++
		}
		// Per-message delivery window, in virtual time.
		want := i + 1
		clk.AwaitCond(1500*time.Millisecond, func() bool {
			for _, fl := range flows {
				fl.drain()
				if fl.delivered < want && fl.delivered < fl.sent {
					return false
				}
			}
			return true
		})
	}

	var delivered, sent, splices, reports int64
	for _, fl := range flows {
		fl.drain()
		if fl.delivered > fl.sent {
			fl.delivered = fl.sent // duplicates cannot mint credit
		}
		delivered += int64(fl.delivered)
		sent += int64(fl.sent)
		st := fl.snd.Counters()
		splices += st.Get("repair_splices")
		reports += st.Get("repair_reports")
	}
	return delivered, sent, splices, reports
}
