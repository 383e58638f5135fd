package source

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/core"
	"infoslicing/internal/simnet"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// The repair loop is the source side of the live churn control plane
// (DESIGN.md, "The live churn control plane"): it keeps stage-1 relays fed
// with heartbeats (so their parent-liveness clocks see a live source even
// between messages), consumes the ParentDown reports that relays flood
// toward the endpoints, and answers each authenticated report with a splice
// — a minimal re-keyed sub-graph (core.Graph.Splice) delivered as sliced
// setup to the replacement plus sealed patches to the surviving neighbors.
//
// Structurally the loop is two hooks rather than a goroutine: heartbeats
// run as a periodic clock task (so a virtual clock fires them
// deterministically), and reports are consumed synchronously on the
// endpoint's delivery path (so the splice a report triggers is stamped at
// the virtual instant the report arrived). Under the wall clock the
// behavior is the same as the old select-loop, minus its channel hop.
//
// Each Sender runs its own repair hooks over its own endpoints, holding only
// its own per-flow lock while it mutates its own graph; a process with
// many flows therefore repairs every flow independently, with no cross-flow
// blocking — the same isolation the data path already has.

// RepairConfig tunes a sender's repair loop.
type RepairConfig struct {
	// Heartbeat is the interval of source→stage-1 keepalives; it should be
	// at most the relays' liveness timeout (four relay heartbeats) or idle
	// flows will be false-reported. Default 100ms.
	Heartbeat time.Duration

	// Pick chooses a replacement relay. The exclude predicate reports ids
	// that must not be chosen (current graph members, source endpoints, and
	// the dead node itself); returning false means no candidate is
	// available, and the report is counted in repair_failed — relays
	// re-report while the parent stays dead, so repair retries naturally.
	// A nil Pick runs the loop in detection-only mode: reports are consumed
	// and counted but nothing is spliced (the repair-off arm of the churn
	// experiment).
	Pick func(exclude func(wire.NodeID) bool) (wire.NodeID, bool)

	// Rng drives nonce dedup-resistant sealing randomness; defaults to a
	// derivation of the sender's rng.
	Rng *rand.Rand
}

// ErrRepairRunning is returned by StartRepair when a loop is already up.
var ErrRepairRunning = errors.New("source: repair loop already running")

type repairState struct {
	eps *Endpoints
	hb  simnet.Task

	// seen dedupes report nonces along the multipath flood; guarded by the
	// sender's mu (reports are handled under it).
	seen map[uint64]bool
}

// StartRepair launches the repair hooks for this flow over the given
// endpoints. Call StopRepair (or stop using the sender) to end them.
func (s *Sender) StartRepair(eps *Endpoints, cfg RepairConfig) error {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 100 * time.Millisecond
	}
	s.mu.Lock()
	if s.repair != nil {
		s.mu.Unlock()
		return ErrRepairRunning
	}
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(s.rng.Int63()))
	}
	st := &repairState{eps: eps, seen: make(map[uint64]bool)}
	// Everything is wired before the state is published (still under s.mu,
	// so a concurrent StopRepair cannot observe a half-started loop). The
	// heartbeat task's first tick and any report simply wait on s.mu.
	st.hb = s.clk.Every(cfg.Heartbeat, func() { s.sendSourceHeartbeats(eps) })
	eps.setReportHandler(func(r DownReport) { s.handleReport(st, eps, cfg, r) })
	s.repair = st
	s.mu.Unlock()
	return nil
}

// StopRepair halts the repair hooks; safe to call more than once.
func (s *Sender) StopRepair() {
	s.mu.Lock()
	st := s.repair
	s.repair = nil
	if st != nil {
		st.eps.setReportHandler(nil)
	}
	s.mu.Unlock()
	if st != nil {
		// Outside s.mu: stopping the wall task waits for an in-flight
		// heartbeat callback, which itself takes s.mu.
		st.hb.Stop()
	}
}

// sendSourceHeartbeats keeps every stage-1 relay's liveness clock fresh for
// all d' endpoint parents, mirroring the data-phase multicast.
func (s *Sender) sendSourceHeartbeats(eps *Endpoints) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.graph
	for _, v := range g.Stages[0] {
		s.pktBuf = wire.AppendHeartbeat(s.pktBuf[:0], g.Flows[v])
		for _, src := range eps.ids {
			s.send(src, v, s.pktBuf)
		}
	}
}

// handleReport dedupes, authenticates, and answers one ParentDown report.
// Trial decryption with the graph's per-node keys both authenticates the
// report (only graph members hold a key) and identifies the reporter; the
// opened body names the dead parent. Everything that touches the graph runs
// under s.mu so splices serialize with the data rounds reading Stages and
// Flows; reports arriving concurrently on several endpoint deliveries
// serialize here too.
func (s *Sender) handleReport(st *repairState, eps *Endpoints, cfg RepairConfig, r DownReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repair != st {
		// StopRepair won the race with this in-flight delivery: the old
		// loop's close+wait guarantee, restated — a stopped repair must not
		// splice the graph or grow its published counters.
		return
	}
	g := s.graph

	var reporter wire.NodeID
	var dead wire.NodeID
	if r.Transport != 0 {
		// Locally-observed transport loss (Endpoints.InjectTransportDown):
		// authenticated by construction — this process measured the loss
		// itself — so there is no sealed body to open and no flood nonce to
		// dedup. Idempotence comes from the stage check below: once the
		// node is spliced out, StageOf goes 0 and re-reports are stale
		// no-ops (reporter stays 0, so nothing is even re-sent).
		dead = r.Transport
	} else {
		if st.seen[r.Nonce] {
			return
		}
		if len(st.seen) >= 1024 {
			st.seen = make(map[uint64]bool)
		}
		st.seen[r.Nonce] = true
		authenticated := false
		for id, key := range g.Keys {
			plain, err := key.Open(r.Sealed)
			if err != nil {
				continue
			}
			d, err := wire.UnmarshalDownReport(plain)
			if err != nil {
				return // authenticated but malformed: a bug, not an attack; drop
			}
			reporter, dead, authenticated = id, d, true
			break
		}
		if !authenticated {
			return // not sealed by any graph member: forged or stale, drop
		}
	}
	s.ctr.Add(0, cRepairReports, 1)

	for _, src := range g.Sources {
		if dead == src {
			// A spliced-in last-stage relay received its block straight
			// from the endpoints, so they are its observed previous hops
			// and the only "parents" it can monitor; source heartbeats go
			// to stage 1 only, so it will report them. The source knows
			// its own endpoints are alive: ignore, and crucially send
			// nothing back — any response would refresh the endpoint's
			// liveness clock at the reporter and keep the report loop from
			// converging on the forget rule.
			return
		}
	}
	stage := g.StageOf(dead)
	if stage == 0 {
		// Already replaced (or never ours). The reporter evidently missed
		// its patch — retransmit its current routing block.
		s.ctr.Add(0, cRepairStale, 1)
		if g.StageOf(reporter) != 0 {
			s.sendSpliceLocked(eps, cfg, g.Flows[reporter], reporter,
				g.Keys[reporter], g.SpliceSeq(), g.Infos[reporter])
		}
		return
	}
	if dead == g.Dest || cfg.Pick == nil {
		// The destination cannot be replaced, and detection-only mode never
		// splices.
		s.ctr.Add(0, cRepairFailed, 1)
		return
	}
	exclude := func(id wire.NodeID) bool {
		if id == dead || g.StageOf(id) != 0 {
			return true
		}
		for _, src := range g.Sources {
			if src == id {
				return true
			}
		}
		return false
	}
	repl, ok := cfg.Pick(exclude)
	if !ok || exclude(repl) {
		s.ctr.Add(0, cRepairFailed, 1)
		return
	}
	plan, err := g.Splice(stage, dead, repl)
	if err != nil {
		s.ctr.Add(0, cRepairFailed, 1)
		return
	}
	// Deliver the replacement's routing block the way the original setup
	// was delivered: sliced d'-of-d, one slice per source endpoint, so no
	// single relay or observer ever holds a decodable set in one place.
	if err := s.sendSpliceSetupLocked(eps, cfg, plan); err != nil {
		s.ctr.Add(0, cRepairFailed, 1)
		return
	}
	// Patch the surviving neighbors, each under its own key.
	for _, p := range plan.Patches {
		s.sendSpliceLocked(eps, cfg, p.Flow, p.Node, p.Key, plan.Seq, p.Info)
	}
	s.ctr.Add(0, cRepairSplices, 1)
}

// sendSpliceSetupLocked slices the replacement's info block and sends one
// MsgSetup per endpoint to the new relay. Runs with s.mu held.
func (s *Sender) sendSpliceSetupLocked(eps *Endpoints, cfg RepairConfig, plan *core.SplicePlan) error {
	g := s.graph
	if s.repairEnc == nil {
		enc, err := code.NewEncoder(g.D, g.DPrime, cfg.Rng)
		if err != nil {
			return err
		}
		s.repairEnc = enc
	}
	slices, err := s.repairEnc.Encode(plan.NewInfo.Marshal())
	if err != nil {
		return err
	}
	for e, sl := range slices {
		slotLen := len(sl.Coeff) + len(sl.Payload) + 4
		s.pktBuf = wire.AppendPacketHeader(s.pktBuf[:0], wire.MsgSetup,
			plan.NewFlow, 0, uint8(g.D), uint16(slotLen), 1)
		s.pktBuf = wire.AppendSlot(s.pktBuf, sl)
		src := eps.ids[e%len(eps.ids)]
		s.send(src, plan.New, s.pktBuf)
	}
	return nil
}

// sendSpliceLocked seals seq ‖ info under the target's existing key and
// sends it as a MsgSplice; the sequence prefix lets the relay drop patches
// that arrive out of order relative to a later repair. Runs with s.mu held.
func (s *Sender) sendSpliceLocked(eps *Endpoints, cfg RepairConfig, flow wire.FlowID,
	node wire.NodeID, key slcrypto.SymmetricKey, seq uint64, info *wire.PerNodeInfo) {
	blob := info.Marshal()
	body := make([]byte, 0, 8+len(blob))
	body = binary.BigEndian.AppendUint64(body, seq)
	body = append(body, blob...)
	sealed, err := key.Seal(cfg.Rng, body)
	if err != nil {
		return
	}
	if len(sealed) > 0xffff {
		return // cannot frame; graphs this large are rejected upstream
	}
	s.pktBuf = wire.AppendSplice(s.pktBuf[:0], flow, sealed)
	src := eps.ids[int(node)%len(eps.ids)]
	s.send(src, node, s.pktBuf)
}
