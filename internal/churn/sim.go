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

// --- Scripted scenario harness ----------------------------------------------
//
// SimScenario is the reusable virtual-time stack for scripted churn
// scenarios: one flow's relays (plus spares), endpoints, sender, and repair
// loop on a simnet.Script universe. The churn scenario tests compose faults
// on it (kills, partitions, link loss) at exact virtual instants; the
// root-level determinism gate runs one canonical scenario twice and
// compares the resulting delivery traces byte for byte.

// SimScenario bundles one flow's protocol stack on a scripted universe.
type SimScenario struct {
	S      *simnet.Script
	Nodes  map[wire.NodeID]*relay.Node
	Eps    *source.Endpoints
	Snd    *source.Sender
	G      *core.Graph
	Spares []wire.NodeID
	SrcIDs []wire.NodeID

	rcfg      source.RepairConfig
	delivered int
	sent      int
}

// SimScenarioSpec sizes a scripted scenario.
type SimScenarioSpec struct {
	Seed         int64
	L, D, DPrime int
	Spares       int
	MessageBytes int
	Repair       bool
}

func (sp *SimScenarioSpec) normalize() error {
	if sp.L < 2 || sp.D < 1 || sp.DPrime < sp.D {
		return fmt.Errorf("churn: invalid scenario spec %+v", *sp)
	}
	if sp.MessageBytes == 0 {
		sp.MessageBytes = 256
	}
	if sp.Spares == 0 {
		sp.Spares = sp.DPrime
	}
	return nil
}

// NewSimScenario builds the stack: relays with the live control plane on
// (10ms heartbeats, 40ms liveness), spares to splice in, endpoints, and a
// sender whose repair loop picks spares in id order. Call Close when done.
func NewSimScenario(sp SimScenarioSpec) (*SimScenario, error) {
	if err := sp.normalize(); err != nil {
		return nil, err
	}
	s := simnet.NewScript(sp.Seed, simLink())
	rng := rand.New(rand.NewSource(sp.Seed))
	relays := make([]wire.NodeID, sp.L*sp.DPrime)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	spares := make([]wire.NodeID, sp.Spares)
	for i := range spares {
		spares[i] = wire.NodeID(500 + i)
	}
	srcIDs := make([]wire.NodeID, sp.DPrime)
	for i := range srcIDs {
		srcIDs[i] = wire.NodeID(900 + i)
	}
	sc := &SimScenario{S: s, Nodes: make(map[wire.NodeID]*relay.Node), Spares: spares, SrcIDs: srcIDs}
	for _, id := range append(append([]wire.NodeID(nil), relays...), spares...) {
		n, err := relay.New(id, s.Net, controlRelayCfg(sp.Seed+int64(id), s.Clk))
		if err != nil {
			sc.Close()
			return nil, err
		}
		sc.Nodes[id] = n
	}
	eps, err := source.AttachEndpoints(s.Net, srcIDs)
	if err != nil {
		sc.Close()
		return nil, err
	}
	sc.Eps = eps
	g, err := core.Build(core.Spec{
		L: sp.L, D: sp.D, DPrime: sp.DPrime,
		Relays: relays, Dest: relays[0], Sources: srcIDs,
		Recode: true, Scramble: true,
		Rng: rng,
	})
	if err != nil {
		sc.Close()
		return nil, err
	}
	sc.G = g
	sc.Snd = source.New(s.Net, g, source.Config{ChunkPayload: sp.MessageBytes, Clock: s.Clk}, rng)

	sc.rcfg = source.RepairConfig{Heartbeat: 10 * time.Millisecond}
	if sp.Repair {
		var mu sync.Mutex
		used := map[wire.NodeID]bool{}
		sc.rcfg.Pick = func(exclude func(wire.NodeID) bool) (wire.NodeID, bool) {
			mu.Lock()
			defer mu.Unlock()
			for _, id := range spares {
				if !used[id] && !exclude(id) {
					used[id] = true
					return id, true
				}
			}
			return 0, false
		}
	}
	return sc, nil
}

// Start injects the setup wave and starts the repair loop. It is separate
// from construction so scenarios can shape links or schedule faults before
// the first packet is sent.
func (sc *SimScenario) Start() error {
	if err := sc.Snd.Establish(); err != nil {
		return err
	}
	return sc.Snd.StartRepair(sc.Eps, sc.rcfg)
}

// Close tears the stack down.
func (sc *SimScenario) Close() {
	if sc.Snd != nil {
		sc.Snd.StopRepair()
	}
	for _, n := range sc.Nodes {
		n.Close()
	}
	if sc.Eps != nil {
		sc.Eps.Close()
	}
	sc.S.Net.Close()
}

// AwaitEstablished steps virtual time until every graph relay decoded its
// routing block.
func (sc *SimScenario) AwaitEstablished(max time.Duration) bool {
	return sc.S.Await(max, func() bool {
		for _, id := range sc.G.Relays {
			if !sc.Nodes[id].Established(sc.G.Flows[id]) {
				return false
			}
		}
		return true
	})
}

// Victims returns the first k non-destination relays of one stage — the
// canonical same-stage failure schedule.
func (sc *SimScenario) Victims(k int) []wire.NodeID {
	for l := 1; l <= sc.G.L; l++ {
		if sc.G.DestStage == l {
			continue
		}
		var cand []wire.NodeID
		for _, id := range sc.G.Stages[l-1] {
			if id != sc.G.Dest {
				cand = append(cand, id)
			}
		}
		if len(cand) >= k {
			return cand[:k]
		}
	}
	return nil
}

// Dest returns the destination relay node.
func (sc *SimScenario) Dest() *relay.Node { return sc.Nodes[sc.G.Dest] }

// Send streams one seeded message of n bytes.
func (sc *SimScenario) Send(rng *rand.Rand, n int) error {
	msg := make([]byte, n)
	rng.Read(msg)
	if err := sc.Snd.Send(msg); err != nil {
		return err
	}
	sc.sent++
	return nil
}

// Drain counts newly decoded messages at the destination.
func (sc *SimScenario) Drain() int {
	return drainCount(sc.Dest().Received(), &sc.delivered)
}

// Counts reports (delivered, sent) so far.
func (sc *SimScenario) Counts() (int, int) {
	sc.Drain()
	return sc.delivered, sc.sent
}

// --- The canonical scripted scenario -----------------------------------------

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
	const (
		messages = 8
		cadence  = 100 * time.Millisecond
		start    = 200 * time.Millisecond
	)
	sc, err := NewSimScenario(SimScenarioSpec{
		Seed: seed, L: 3, D: 2, DPrime: 3, Spares: 3, Repair: repair,
	})
	if err != nil {
		return CanonicalScenarioResult{}, err
	}
	defer sc.Close()
	if err := sc.Start(); err != nil {
		return CanonicalScenarioResult{}, err
	}
	if !sc.AwaitEstablished(5 * time.Second) {
		return CanonicalScenarioResult{}, fmt.Errorf("churn: canonical scenario never established")
	}
	victims := sc.Victims(2)
	if victims == nil {
		return CanonicalScenarioResult{}, fmt.Errorf("churn: no same-stage victims")
	}
	// Kills land mid-stream, between message sends, at fixed virtual times.
	sc.S.KillAt(start+2*cadence+50*time.Millisecond, victims[0])
	sc.S.KillAt(start+5*cadence+50*time.Millisecond, victims[1])

	msgRng := rand.New(rand.NewSource(seed + 99))
	for i := 0; i < messages; i++ {
		sc.S.Run(start + time.Duration(i)*cadence)
		if err := sc.Send(msgRng, 256); err != nil {
			return CanonicalScenarioResult{}, err
		}
	}
	// Let the tail of the stream settle: either everything decodes or the
	// virtual deadline expires.
	sc.S.Await(3*time.Second, func() bool {
		d, s := sc.Counts()
		return d >= s
	})
	// Drain to a fixed virtual horizon past the await: AwaitCond stops at
	// the event that made its condition true, possibly mid-instant, so the
	// trace ends at a fixed window of virtual time instead.
	sc.S.Run(sc.S.Elapsed() + 100*time.Millisecond)
	delivered, sent := sc.Counts()
	st := sc.Snd.Counters()
	return CanonicalScenarioResult{
		Delivered:      delivered,
		Sent:           sent,
		Splices:        st.Get("repair_splices"),
		Reports:        st.Get("repair_reports"),
		Trace:          sc.S.Net.TraceString(),
		VirtualElapsed: sc.S.Elapsed(),
	}, nil
}
