// Package source implements the sender-side utility (§7.1): it selects
// relays, builds the forwarding graph, establishes it by injecting the
// setup packets from the source endpoints (the source plus its
// pseudo-sources, §3c), and streams data messages down the graph.
//
// The data path follows §4.3.7: each message is sealed with the symmetric
// key the setup phase delivered to the destination, split into rounds, and
// each round is coded into d' slices; source endpoint e multicasts slice e
// to every stage-1 relay, so each stage-1 relay starts the round holding all
// d' slices, and the data-maps walk them down the graph.
//
// One Sender drives one flow; a process with many concurrent flows holds one
// Sender per flow over a shared transport.
package source

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/core"
	"infoslicing/internal/metrics"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// Config controls a sender.
type Config struct {
	// ChunkPayload is the number of plaintext bytes carried per data round
	// (before coding). Defaults to 1200·d bytes so each slice payload is
	// near the paper's 1500-byte packets.
	ChunkPayload int

	// RateBps, when positive, paces the plaintext send rate (bits/second).
	// The protocol itself has no feedback channel during data transfer, so
	// an unpaced sender can queue arbitrarily far ahead of a slow overlay;
	// pacing keeps relay buffers bounded. Zero disables pacing.
	RateBps int64

	// Clock drives pacing, establishment deadlines, and the repair loop's
	// heartbeat. Defaults to simnet.Wall; inject the scenario's
	// simnet.VirtualClock to run the sender in virtual time. Under a
	// non-wall clock RateBps pacing is disabled (the sending goroutine
	// typically drives a virtual clock and must not block on it);
	// scenarios pace by scheduling sends at spaced virtual instants.
	Clock simnet.Clock
}

// Sender drives one anonymous flow over an established forwarding graph.
// Every mutable field below — the lock included — is scoped to this one
// flow: a process driving many flows holds one Sender per flow and nothing
// sender-side is shared between them except the transport, so unrelated
// flows never serialize on each other.
type Sender struct {
	tr    overlay.Transport
	graph *core.Graph
	cfg   Config
	clk   simnet.Clock
	rng   *rand.Rand

	// adv is the transport's congestion advisor, when it has one (the UDP
	// transport does): before each round the pacer asks it how long the
	// most-backlogged stage-1 destination wants the source to hold off, so
	// the plaintext rate adapts to the measured per-destination windows
	// instead of overrunning them. Nil for transports without congestion
	// state; independent of RateBps.
	adv overlay.CongestionAdvisor

	// sendMu serializes Send: one message's rounds go out back to back, so
	// concurrent callers cannot interleave rounds of different messages on
	// the flow's single byte stream. It guards frame, the sealed message
	// the rounds are cut from, reused message after message.
	sendMu sync.Mutex
	frame  []byte

	// mu guards this flow's round pipeline only. It is held across
	// sendRound (so the encoder and framing scratch can be reused round
	// after round) but never across pacing sleeps, and never by any other
	// flow.
	mu          sync.Mutex
	seq         uint32
	established bool
	paceFree    time.Time // virtual-time pacer for Config.RateBps

	// Round scratch, guarded by mu: the destination-keyed sealer, the
	// encoder (which carries its own matrix and chop workspaces), the coded
	// slices, and the packet framing buffer are reused across every round
	// of the flow.
	sealer *slcrypto.Sealer
	enc    *code.Encoder
	encErr error
	slices []code.Slice
	pktBuf []byte

	// Live-repair state (repair.go), guarded by mu: the running loop and
	// the encoder that slices replacement info blocks.
	repair    *repairState
	repairEnc *code.Encoder

	// ctr is the flow's counter block (one stripe: its writers mostly hold mu).
	ctr *metrics.ShardedCounter
}

// The sender's counters: data rounds sent, frames shed at full peer queues,
// and authenticated reports consumed: stale (patch re-sent), spliced, or failed.
const cRoundsSent, cSendDrops, cRepairReports, cRepairStale, cRepairSplices, cRepairFailed = 0, 1, 2, 3, 4, 5

var vocab = metrics.NewVocab("rounds_sent", "send_drops", "repair_reports", "repair_stale", "repair_splices", "repair_failed")

// Errors.
var (
	ErrNotEstablished = errors.New("source: graph not established")
)

// New creates a sender for a built graph. The transport must already have
// the source endpoints attached (they only transmit; a no-op handler is
// fine).
func New(tr overlay.Transport, g *core.Graph, cfg Config, rng *rand.Rand) *Sender {
	if cfg.ChunkPayload == 0 {
		cfg.ChunkPayload = 1200 * g.D
	}
	if cfg.Clock == nil {
		cfg.Clock = simnet.Wall
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	adv, _ := tr.(overlay.CongestionAdvisor)
	return &Sender{tr: tr, graph: g, cfg: cfg, clk: cfg.Clock, rng: rng, adv: adv, ctr: metrics.NewShardedCounter(1, vocab)}
}

// Graph exposes the underlying forwarding graph (the source knows it all).
func (s *Sender) Graph() *core.Graph { return s.graph }

// Establish injects the setup packets. It returns after the packets are
// handed to the transport; establishment completes asynchronously inside
// the overlay. Use relay instrumentation or send data optimistically — data
// that races ahead is buffered by relays.
func (s *Sender) Establish() error {
	for _, snd := range s.graph.Setup {
		if err := s.tr.Send(snd.From, snd.To, snd.Pkt.Marshal()); err != nil {
			if errors.Is(err, overlay.ErrSendQueueFull) {
				// A shed setup frame is not fatal: the wave is idempotent
				// and EstablishAndWait retransmits it until acked.
				s.ctr.Add(0, cSendDrops, 1)
				continue
			}
			return fmt.Errorf("source: establish: %w", err)
		}
	}
	s.mu.Lock()
	s.established = true
	s.mu.Unlock()
	return nil
}

// Send seals msg with the destination's key and streams it down the graph.
// It may be called concurrently; calls on one Sender go out one message at
// a time.
func (s *Sender) Send(msg []byte) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.mu.Lock()
	if !s.established {
		s.mu.Unlock()
		return ErrNotEstablished
	}
	if s.sealer == nil {
		s.sealer = slcrypto.NewSealer(s.graph.DestKey)
	}
	// Frame: 4-byte length prefix, then the sealed bytes — sealed straight
	// into the flow's frame buffer, which is then cut into rounds.
	n := slcrypto.SealedLen(len(msg))
	framed := binary.BigEndian.AppendUint32(s.frame[:0], uint32(n))
	framed, err := s.sealer.SealTo(framed, rngReader{s.rng}, msg)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("source: %w", err)
	}
	s.frame = framed

	chunk := s.cfg.ChunkPayload
	for off := 0; off < len(framed); off += chunk {
		end := off + chunk
		if end > len(framed) {
			end = len(framed)
		}
		s.pace(end - off)
		if err := s.sendRound(framed[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// pace sleeps just enough to keep the long-run plaintext rate at RateBps.
// The pacer's own virtual-time accounting repays oversleeping (OS timer
// granularity) with later chunks passing through unslept.
//
// Pacing only ever blocks on the wall clock. Under any other Clock —
// a VirtualClock or a wrapper around one — Send typically runs on the
// goroutine that drives the clock, which must never block on it
// (VirtualClock.Sleep is reserved for Go-registered goroutines), so the
// sleep is skipped outright rather than risking a deadlock on a clock we
// cannot classify; virtual scenarios pace by scheduling their sends at
// spaced virtual instants instead.
func (s *Sender) pace(bytes int) {
	if s.clk != simnet.Wall {
		return
	}
	if s.adv != nil {
		// Congestion gate, independent of RateBps: each round multicasts a
		// slice to every stage-1 relay, so the round can go no faster than
		// its slowest destination's window allows. Ask the advisor for each
		// destination's suggested hold-off and sleep the maximum. Per-slice
		// bytes approximate the per-destination load of the round.
		// SendDelay only reads the peer's window (no blocking, the same
		// locks Send takes under s.mu), so the stage is walked in place.
		var worst time.Duration
		s.mu.Lock()
		stage1 := s.graph.Stages[0]
		per := bytes
		if n := len(stage1); n > 0 {
			per = bytes/n + 64 // slice payload + header overhead, roughly
		}
		for _, v := range stage1 {
			if d := s.adv.SendDelay(v, per); d > worst {
				worst = d
			}
		}
		s.mu.Unlock()
		if worst > 0 {
			s.clk.Sleep(worst)
		}
	}
	if s.cfg.RateBps <= 0 {
		return
	}
	cost := time.Duration(float64(bytes) * 8 / float64(s.cfg.RateBps) * float64(time.Second))
	s.mu.Lock()
	now := s.clk.Now()
	start := s.paceFree
	if start.Before(now) {
		start = now
	}
	s.paceFree = start.Add(cost)
	target := s.paceFree
	s.mu.Unlock()
	if d := target.Sub(s.clk.Now()); d > 0 {
		s.clk.Sleep(d)
	}
}

// sendRound codes one chunk into d' slices and multicasts them from the
// source endpoints to stage 1. It holds s.mu throughout so the encoder and
// framing scratch can be reused round after round; all transports release
// the buffer before Send returns.
func (s *Sender) sendRound(chunk []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq
	s.seq++
	s.ctr.Add(0, cRoundsSent, 1)
	if s.enc == nil && s.encErr == nil {
		s.enc, s.encErr = code.NewEncoder(s.graph.D, s.graph.DPrime, s.rng)
	}
	if s.encErr != nil {
		return s.encErr
	}
	slices, err := s.enc.EncodeInto(chunk, s.slices)
	if err != nil {
		return err
	}
	s.slices = slices
	g := s.graph
	for e, src := range g.Sources {
		// Frame the slice once; only the per-child flow-id differs between
		// stage-1 targets, so patch it in place instead of re-marshaling.
		slotLen := len(slices[e].Coeff) + len(slices[e].Payload) + 4
		s.pktBuf = wire.AppendPacketHeader(s.pktBuf[:0], wire.MsgData, 0,
			seq, uint8(g.D), uint16(slotLen), 1)
		s.pktBuf = wire.AppendSlot(s.pktBuf, slices[e])
		for _, v := range g.Stages[0] {
			wire.PatchFlow(s.pktBuf, g.Flows[v])
			if err := s.tr.Send(src, v, s.pktBuf); err != nil {
				// A crashed pseudo-source is survivable when d' > d, and a
				// slow peer sheds at its queue rather than blocking this
				// round (non-blocking send contract) — count the shed
				// frames, let redundancy cover them.
				if errors.Is(err, overlay.ErrSendQueueFull) {
					s.ctr.Add(0, cSendDrops, 1)
				}
				continue
			}
		}
	}
	return nil
}

// Counters reads the flow's counters.
func (s *Sender) Counters() metrics.Snapshot { return s.ctr.Snapshot() }

// SendDrops reports how many frames the transport shed at full peer queues
// for this flow (always zero on the in-memory transports, which have no
// peer queues).
func (s *Sender) SendDrops() int64 { return s.Counters().Get("send_drops") }

// send is the fire-and-forget variant of Transport.Send for control
// traffic (repair heartbeats, splices, replacement setup): datagram
// semantics, but queue-full sheds are counted so a slow peer is visible.
func (s *Sender) send(from, to wire.NodeID, buf []byte) {
	if err := s.tr.Send(from, to, buf); err != nil && errors.Is(err, overlay.ErrSendQueueFull) {
		s.ctr.Add(0, cSendDrops, 1)
	}
}

// rngReader adapts the sender RNG to io.Reader for sealing; the caller
// holds the sender's lock. Experiments are deterministic under a fixed
// seed; production callers can wrap crypto/rand by seeding Config with it
// at a higher layer.
type rngReader struct{ rng *rand.Rand }

func (r rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}
