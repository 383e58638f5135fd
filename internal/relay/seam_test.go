package relay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// A shard's seam: step(now, burst) and tick(now) are the only calls that
// change it, and neither touches a channel, timer, clock or transport. The
// tests here drive a shard through them alone, on the test goroutine, and act
// as its driver themselves: they read what a call left — frames per
// destination, deliveries, the next instant — and flush it.

// seam fails its test on any clock or transport call made while strict:
// inside step and tick.
type seam struct {
	tb     testing.TB
	strict bool
}

func (s *seam) touch(call string) {
	if s.strict {
		s.tb.Errorf("%s called inside step or tick", call)
	}
}

// seamClock is a virtual clock that nothing advances, watched by a seam: the
// driver's timer is armed on it and never fires.
type seamClock struct {
	*simnet.VirtualClock
	s *seam
}

func (c seamClock) Now() time.Time {
	c.s.touch("Clock.Now")
	return c.VirtualClock.Now()
}
func (c seamClock) Sleep(d time.Duration) {
	c.s.touch("Clock.Sleep")
	c.VirtualClock.Sleep(d)
}
func (c seamClock) After(d time.Duration) <-chan time.Time {
	c.s.touch("Clock.After")
	return c.VirtualClock.After(d)
}
func (c seamClock) AfterFunc(d time.Duration, f func()) simnet.Timer {
	c.s.touch("Clock.AfterFunc")
	return c.VirtualClock.AfterFunc(d, f)
}
func (c seamClock) Every(d time.Duration, f func()) simnet.Task {
	c.s.touch("Clock.Every")
	return c.VirtualClock.Every(d, f)
}
func (c seamClock) Hold() func() {
	c.s.touch("Clock.Hold")
	return c.VirtualClock.Hold()
}

// seamTransport records what the node sends, by destination in send order.
type seamTransport struct {
	overlay.TransportBase
	s    *seam
	sent map[wire.NodeID][][]byte
}

func (t *seamTransport) Attach(wire.NodeID, overlay.Handler) error {
	t.s.touch("Transport.Attach")
	return nil
}
func (t *seamTransport) Detach(wire.NodeID) { t.s.touch("Transport.Detach") }
func (t *seamTransport) Send(_, to wire.NodeID, data []byte) error {
	t.s.touch("Transport.Send")
	t.sent[to] = append(t.sent[to], bytes.Clone(data))
	return nil
}

// seamRig is a one-shard node driven through its seam. After each call,
// frames holds what it left for each destination, in the order the driver's
// flush sent it, delivered the messages it opened, and next its next instant.
type seamRig struct {
	seam
	n         *Node
	sh        *shard
	tr        *seamTransport
	frames    map[wire.NodeID][][]byte
	delivered []Message
	next      time.Duration
}

func newSeamRig(tb testing.TB, id wire.NodeID, cfg Config) *seamRig {
	tb.Helper()
	r := &seamRig{seam: seam{tb: tb}}
	r.tr = &seamTransport{s: &r.seam}
	cfg.Clock = seamClock{simnet.NewVirtualClock(), &r.seam}
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(int64(id)))
	}
	n, err := New(id, r.tr, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)
	r.n, r.sh = n, n.shards[0]
	return r
}

// call runs fn — a step or a tick — strictly, reads what it left, and flushes
// it as the driver would.
func (r *seamRig) call(fn func()) {
	r.strict = true
	fn()
	r.strict = false
	r.delivered = slices.Clone(r.sh.delivered)
	r.next = time.Duration(r.sh.next())
	r.tr.sent = map[wire.NodeID][][]byte{}
	r.n.flush(r.sh)
	r.frames = r.tr.sent
	for range r.delivered {
		<-r.n.received
	}
}

func (r *seamRig) step(now time.Duration, burst ...inPkt) {
	r.call(func() { r.n.step(r.sh, int64(now), burst) })
}

func (r *seamRig) tick(now time.Duration) {
	r.call(func() { r.n.tick(r.sh, int64(now)) })
}

// tickTo ticks at every next instant up to at, then at at, as the driver's
// timer would; frames and delivered gather what all of those ticks left.
func (r *seamRig) tickTo(at time.Duration) {
	frames, delivered := map[wire.NodeID][][]byte{}, []Message(nil)
	for done := false; !done; {
		now := min(r.next, at)
		done = now == at
		r.tick(now)
		for to, f := range r.frames {
			frames[to] = append(frames[to], f...)
		}
		delivered = append(delivered, r.delivered...)
	}
	r.frames, r.delivered = frames, delivered
}

// types lists the message types of frames.
func types(frames [][]byte) []wire.MsgType {
	out := make([]wire.MsgType, len(frames))
	for i, f := range frames {
		out[i] = wire.MsgType(f[0])
	}
	return out
}

// sealedRounds seals each message under key, length-prefixed as a sender
// frames it, into one round apiece, coded into one slice per parent:
// rounds[seq][parent].
func sealedRounds(tb testing.TB, key slcrypto.SymmetricKey, rng *rand.Rand, parents int, msgs ...[]byte) [][]code.Slice {
	tb.Helper()
	enc, err := code.NewEncoder(2, parents, rng)
	if err != nil {
		tb.Fatal(err)
	}
	var rounds [][]code.Slice
	for _, m := range msgs {
		framed := binary.BigEndian.AppendUint32(nil, uint32(slcrypto.SealedLen(len(m))))
		if framed, err = slcrypto.NewSealer(key).SealTo(framed, rng, m); err != nil {
			tb.Fatal(err)
		}
		s, err := enc.Encode(framed)
		if err != nil {
			tb.Fatal(err)
		}
		rounds = append(rounds, s)
	}
	return rounds
}

// TestShardStepTouchesNoIO drives one shard through set-up with data racing
// ahead of it, a round regenerated for a lost parent, an ack, a receiver's
// deliveries and gap write-off, a heartbeat sweep with a ParentDown report
// and a GC eviction, by step and tick alone, with a clock and transport that
// fail the test if either call touches them. Each call's effects are its
// frames per destination, in framing order, its deliveries and its next
// instant; and the books balance throughout.
func TestShardStepTouchesNoIO(t *testing.T) {
	const (
		ms        = time.Millisecond
		roundWait = 50 * ms
		gapWait   = gapRounds * roundWait
		heartbeat = 200 * ms
		liveness  = livenessBeats * heartbeat
	)
	g := stagingGraph(t)
	target := g.Stages[1][0]
	r := newSeamRig(t, target, Config{
		RoundWait: roundWait, FlowTTL: 2 * time.Second,
		GCInterval: 500 * ms, Heartbeat: heartbeat,
	})
	info, flow := g.Infos[target], g.Flows[target]
	kids, kidFlows := info.Children, info.ChildFlows
	var parents []wire.NodeID
	for _, e := range info.DataMap {
		parents = append(parents, e.Parent)
	}
	if len(kids) != 3 || len(parents) != 3 || !info.Recode {
		t.Fatalf("target has %d children and %d data-map parents, recode %v; want 3, 3, true", len(kids), len(parents), info.Recode)
	}
	rng := rand.New(rand.NewSource(3))
	enc, err := code.NewEncoder(2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 300)
	rng.Read(chunk)
	sl, err := enc.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	data := func(p int, seq uint32) inPkt {
		return inPkt{from: parents[p], data: dataFrame(flow, seq, 2, sl[p])}
	}
	expect := func(what string, want map[wire.NodeID][]wire.MsgType) {
		t.Helper()
		if len(r.frames) != len(want) {
			t.Errorf("%s: frames to %d destinations, want %d", what, len(r.frames), len(want))
		}
		for to, w := range want {
			if got := types(r.frames[to]); !slices.Equal(got, w) {
				t.Errorf("%s: frames to %d are %v, want %v", what, to, got, w)
			}
		}
		checkBooks(t, r.n)
	}
	each := func(ids []wire.NodeID, ts ...wire.MsgType) map[wire.NodeID][]wire.MsgType {
		m := map[wire.NodeID][]wire.MsgType{}
		for _, id := range ids {
			m[id] = ts
		}
		return m
	}

	// Round 0 races ahead of the set-up wave: held, nothing leaves.
	r.step(1*ms, data(0, 0), data(1, 0), data(2, 0))
	expect("data ahead of set-up", nil)
	if r.next != heartbeat {
		t.Errorf("next instant %v with nothing waiting, want the heartbeat instant", r.next)
	}
	// The wave decodes at its second packet, which replays round 0; the third
	// completes the wave. Frames leave in framing order, so every child hears
	// round 0 and then its set-up packet.
	var wave []inPkt
	for _, p := range waveInto(t, g, target) {
		wave = append(wave, inPkt{from: p.from, data: p.frame})
	}
	r.step(2*ms, wave...)
	expect("set-up", each(kids, wire.MsgData, wire.MsgSetup))
	for c, k := range kids {
		var p wire.Packet
		if err := wire.ParsePacket(r.frames[k][0], &p); err != nil || p.Flow != kidFlows[c] || p.Seq != 0 {
			t.Errorf("child %d's data frame: %+v, %v; want round 0 of flow %d", k, p, err, kidFlows[c])
		}
	}
	// A child's ack moves one hop up, to every parent.
	r.step(3*ms, inPkt{from: kids[0], data: ackFrame(kidFlows[0])})
	expect("ack", each(parents, wire.MsgAck))

	// Round 1 loses its third parent: it waits RoundWait, then forwards with
	// the third child's slice regenerated. (The flow's round wait, armed by
	// round 0's first slice, runs out first with nothing to do.)
	r.step(10*ms, data(0, 1), data(1, 1))
	expect("short round", nil)
	if r.next != 2*ms+roundWait {
		t.Errorf("next instant %v after a short round, want round 0's wait %v", r.next, 2*ms+roundWait)
	}
	r.tick(2*ms + roundWait)
	expect("idle round wait", nil)
	if r.next != 10*ms+roundWait {
		t.Errorf("next instant %v, want round 1's deadline %v", r.next, 10*ms+roundWait)
	}
	r.tick(10*ms + roundWait)
	expect("round deadline", each(kids, wire.MsgData))
	if got := r.n.Counters().Get("regenerated"); got != 1 {
		t.Errorf("regenerated %d slices, want 1", got)
	}

	// A destination flow on the same shard: three one-round messages, of
	// which the second round never comes.
	const rxFlow = wire.FlowID(0x5ea1)
	key := testKey(0x5e)
	rxParents := []wire.NodeID{31, 32, 33}
	injectFlowAt(r.n, rxFlow, &wire.PerNodeInfo{Receiver: true, Key: key, DataMap: parentsOnly(rxParents...)}, r.n.epoch)
	msgs := [][]byte{[]byte("first message"), []byte("second, lost"), []byte("third message")}
	rounds := sealedRounds(t, key, rng, 3, msgs...)
	rx := func(p int, seq uint32) inPkt {
		return inPkt{from: rxParents[p], data: dataFrame(rxFlow, seq, 2, rounds[seq][p])}
	}
	r.step(70*ms, rx(0, 0), rx(1, 0))
	if len(r.delivered) != 1 || !bytes.Equal(r.delivered[0].Data, msgs[0]) || r.delivered[0].Flow != rxFlow {
		t.Errorf("delivered %v, want the first message", r.delivered)
	}
	r.step(80*ms, rx(0, 2), rx(1, 2))
	var gap int64
	r.sh.do(func() { gap = r.sh.flows[rxFlow].due[dlGap] })
	if len(r.delivered) != 0 || gap != int64(80*ms+gapWait) {
		t.Errorf("round 2 behind a hole: delivered %v and gap wait at %v, want nothing and %v", r.delivered, time.Duration(gap), 80*ms+gapWait)
	}
	r.tickTo(80*ms + gapWait)
	if len(r.delivered) != 1 || !bytes.Equal(r.delivered[0].Data, msgs[2]) {
		t.Errorf("after the gap write-off delivered %v, want the third message", r.delivered)
	}
	if got := r.n.Counters().Get("rounds_skipped"); got != 1 {
		t.Errorf("rounds_skipped = %d, want 1", got)
	}
	expect("gap write-off", nil)

	// Heartbeats keep two parents of each flow fresh; the relay's third has
	// been silent since the wave. Every sweep sends each child a keepalive;
	// the first at which the third parent has been silent longer than the
	// liveness timeout also reports it to every hop.
	hb := func(from wire.NodeID, f wire.FlowID) inPkt {
		return inPkt{from: from, data: wire.AppendHeartbeat(nil, f)}
	}
	const reportAt = liveness + heartbeat // the first sweep past 2ms + liveness
	r.tickTo(reportAt - 100*ms)           // a GC instant passes, with nothing idle long enough
	beats := make([]wire.MsgType, liveness/heartbeat)
	for i := range beats {
		beats[i] = wire.MsgHeartbeat
	}
	expect("sweeps within the liveness timeout, GC with nothing to evict", each(kids, beats...))
	r.step(reportAt-100*ms, hb(parents[0], flow), hb(parents[1], flow), hb(rxParents[0], rxFlow), hb(rxParents[1], rxFlow))
	expect("heartbeats in", nil)
	if r.next != reportAt {
		t.Errorf("next instant %v, want the heartbeat and GC instant %v", r.next, reportAt)
	}
	r.tick(reportAt)
	want := each(kids, wire.MsgHeartbeat)
	for _, ps := range [][]wire.NodeID{parents, rxParents} {
		for id, ts := range each(ps, wire.MsgParentDown) {
			want[id] = ts
		}
	}
	expect("heartbeat sweep", want)
	if r.next != reportAt+heartbeat {
		t.Errorf("next instant %v after the sweep, want the next heartbeat instant %v", r.next, reportAt+heartbeat)
	}

	// Both flows go idle past FlowTTL at the GC instant after 2s: the batch
	// evicts them. The sweeps up to it keep framing keepalives and reports.
	r.tickTo(2500*ms - heartbeat/2)
	if got := r.n.FlowTableSize(); got != 2 {
		t.Errorf("%d flows resident before they idle out, want 2", got)
	}
	r.tickTo(2500 * ms)
	expect("GC", nil)
	if got := r.n.Counters().Get("flows_evicted"); got != 2 || r.n.FlowTableSize() != 0 {
		t.Errorf("flows_evicted = %d with %d flows left, want 2 and none", got, r.n.FlowTableSize())
	}
	if want := 2500*ms + heartbeat/2; r.next != want {
		t.Errorf("next instant %v, want the next heartbeat instant %v", r.next, want)
	}
}

// TestGapWaitCountsFromStepNow: a step's waits count from the instant it is
// given, whatever the clock reads.
func TestGapWaitCountsFromStepNow(t *testing.T) {
	const (
		now       = 37 * time.Millisecond // the rig's clock reads zero
		roundWait = 50 * time.Millisecond
	)
	r := newSeamRig(t, 1, Config{RoundWait: roundWait, FlowTTL: time.Hour})
	key := testKey(0x6a)
	fs := injectFlowAt(r.n, 0x6a, &wire.PerNodeInfo{Receiver: true, Key: key, DataMap: parentsOnly(11, 12)}, r.n.epoch)
	rounds := sealedRounds(t, key, rand.New(rand.NewSource(6)), 2, []byte("a"), []byte("b"))
	r.step(now, inPkt{from: 11, data: dataFrame(0x6a, 1, 2, rounds[1][0])}, inPkt{from: 12, data: dataFrame(0x6a, 1, 2, rounds[1][1])})
	var due int64
	r.sh.do(func() { due = fs.due[dlGap] })
	if want := int64(now + gapRounds*roundWait); due != want {
		t.Fatalf("gap wait armed for %v, want step's now + gap wait = %v", time.Duration(due), time.Duration(want))
	}
}

// TestCloseReleasesTickHold closes a node while its clock timer's wake token
// sits queued behind a busy worker: whether the worker takes the token or
// exits first and leaves it to Close, its hold comes back and the virtual
// clock quiesces.
func TestCloseReleasesTickHold(t *testing.T) {
	for i := 0; i < 20; i++ {
		clk := simnet.NewVirtualClock()
		n, err := New(1, dqTransport{}, Config{Clock: clk, GCInterval: time.Millisecond, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			t.Fatal(err)
		}
		sh := n.shards[0]
		busy, gate := make(chan struct{}), make(chan struct{})
		go sh.do(func() {
			close(busy)
			<-gate
		})
		<-busy
		stepped := make(chan struct{})
		go func() {
			clk.RunFor(time.Millisecond) // fires the timer, then waits on its token's hold
			close(stepped)
		}()
		if !simnet.Eventually(5*time.Second, 10*time.Microsecond, func() bool { return len(sh.wake) == 1 }) {
			t.Fatal("the clock timer never queued a wake token")
		}
		closed := make(chan struct{})
		go func() {
			n.Close()
			close(closed)
		}()
		<-n.done
		close(gate)
		<-closed
		select {
		case <-stepped:
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: virtual clock never quiesced: a queued wake token's hold leaked", i)
		}
	}
}

// FuzzShardStep feeds one shard arbitrary bursts and tick instants, with no
// goroutine between the fuzzer and the seam: set-up packets of a real wave,
// data from the flow's parents and from strangers, heartbeats, acks,
// ParentDown reports, splice probes and garbage, in bursts of any size, and
// ticks that run round, gap and set-up waits, GC batches and heartbeat
// sweeps. After every call the books balance, the admission count equals the
// flows the shard holds, and no (flow, round, child) has been framed twice;
// after Close admission is back at zero and every egress slab is home.
func FuzzShardStep(f *testing.F) {
	g := stagingGraph(f)
	target := g.Stages[1][0]
	wave := waveInto(f, g, target)
	flow, info := g.Flows[target], g.Infos[target]
	sl := testSlices(f, 2, 3)
	// The wave, a full round, a round short of a parent forwarded at its
	// deadline, an ack, heartbeats, and idling into liveness reports and GC.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 7, 0, 1, 0, 1, 1, 1, 2, 7, 0, 1, 4, 1, 5, 7, 0, 6, 40,
		3, 0, 7, 0, 2, 0, 2, 1, 6, 40, 6, 200, 6, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		r := newSeamRig(t, target, Config{
			SetupWait: 7 * time.Millisecond, RoundWait: 5 * time.Millisecond,
			FlowTTL: 60 * time.Millisecond, GCInterval: 20 * time.Millisecond,
			Heartbeat: 4 * time.Millisecond,
		})
		// A flow evicted and admitted again is a new flow: gen counts the
		// target's admissions, and a frame is its round's to a child for one.
		framed := map[string]bool{}
		gen, resident := 0, false
		var now time.Duration
		var burst []inPkt
		check := func(what string) {
			var held int
			var in bool
			r.sh.do(func() { held, in = len(r.sh.flows), r.sh.flows[flow] != nil })
			if in && !resident {
				gen++
			}
			resident = in
			for to, frames := range r.frames {
				for _, fr := range frames {
					var p wire.Packet
					if wire.ParsePacket(fr, &p) != nil || p.Type != wire.MsgData {
						continue
					}
					k := fmt.Sprint(gen, to, p.Flow, p.Seq)
					if framed[k] {
						t.Fatalf("%s at %v: round %d framed twice to child %d (flow %d)", what, now, p.Seq, to, p.Flow)
					}
					framed[k] = true
				}
			}
			if err := r.n.Books(); err != nil {
				t.Fatalf("%s at %v: %v", what, now, err)
			}
			if got := r.n.flowCount.Load(); got != int64(held) {
				t.Fatalf("%s at %v: flowCount %d, the shard holds %d flows", what, now, got, held)
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, a := script[i], script[i+1]
			parent := info.DataMap[int(a)%len(info.DataMap)].Parent
			switch op % 8 {
			case 0:
				p := wave[int(a)%len(wave)]
				burst = append(burst, inPkt{from: p.from, data: p.frame})
			case 1:
				// Round a>>2&31 from parent a&3, the fourth a stranger; with
				// the top bit, round 200 times that, so the window slides.
				p, seq, from := int(a&3), uint32(a>>2&31), wire.NodeID(99)
				if a&0x80 != 0 {
					seq *= 200
				}
				if p < len(info.DataMap) {
					from = info.DataMap[p].Parent
				}
				burst = append(burst, inPkt{from: from, data: dataFrame(flow, seq, 2, sl[p%len(sl)])})
			case 2:
				burst = append(burst, inPkt{from: parent, data: wire.AppendHeartbeat(nil, flow)})
			case 3:
				c := int(a) % len(info.Children)
				burst = append(burst, inPkt{from: info.Children[c], data: ackFrame(info.ChildFlows[c])})
			case 4:
				c := int(a) % len(info.Children)
				burst = append(burst, inPkt{from: info.Children[c], data: wire.AppendParentDown(nil, info.ChildFlows[c], uint64(a%4), []byte{a, a})})
			case 5:
				garbage := []inPkt{
					{from: parent, data: wire.AppendSplice(nil, flow, []byte{a})},
					{from: parent, data: []byte{a, a}},
					{from: parent, data: junkDataFrame(wire.FlowID(a))},
				}
				burst = append(burst, garbage[int(a)%len(garbage)])
			case 6:
				if len(burst) > 0 {
					r.step(now, burst...)
					burst = burst[:0]
					check("step")
				}
				now += time.Duration(a) * time.Millisecond / 4
				r.tick(now)
				check("tick")
			case 7:
				r.step(now, burst...)
				burst = burst[:0]
				check("step")
			}
			if len(burst) == maxBurst {
				r.step(now, burst...)
				burst = burst[:0]
				check("step")
			}
		}
		r.n.Close()
		if got := r.n.flowCount.Load(); got != 0 {
			t.Fatalf("flowCount %d after Close", got)
		}
		if got := r.n.egPool.Outstanding(); got != 0 {
			t.Fatalf("%d egress slabs outstanding after Close", got)
		}
	})
}

// TestStrangerDataFilesNothing: under an established flow, a data slice from
// a sender the block does not name counts in unmatched and does nothing else.
// It is not filed, so it cannot complete a round (and feed recoding a forged
// slice), and it does not refresh the flow's activity stamp.
func TestStrangerDataFilesNothing(t *testing.T) {
	const (
		ms   = time.Millisecond
		flow = wire.FlowID(0x5eed)
	)
	r := newSeamRig(t, 2, Config{Shards: 1, RoundWait: 50 * ms})
	fs := injectFlowAt(r.n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{21, 22},
		ChildFlows: []wire.FlowID{0x21, 0x22},
		Key:        testKey(1),
		Recode:     true,
		DataMap:    []wire.DataForward{{Parent: 11, Child: 0}, {Parent: 12, Child: 1}},
	}, r.n.epoch)
	enc, err := code.NewEncoder(2, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := enc.Encode(make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	r.step(1*ms, inPkt{from: 11, data: dataFrame(flow, 0, 2, sl[0])})
	before := r.n.Counters()
	r.step(2*ms, inPkt{from: 999, data: dataFrame(flow, 0, 2, sl[1])})
	c := r.n.Counters()
	if got := c.Get("slices_filed"); got != 1 {
		t.Errorf("slices_filed = %d, want 1: the stranger's slice was filed", got)
	}
	if got := c.Get("unmatched") - before.Get("unmatched"); got != 1 {
		t.Errorf("unmatched moved by %d, want 1", got)
	}
	if len(r.frames) != 0 {
		t.Errorf("the stranger's slice completed the round: frames to %d destinations", len(r.frames))
	}
	if fs.lastActive != int64(1*ms) {
		t.Errorf("lastActive = %v, want the parent's 1ms: the stranger refreshed the flow", time.Duration(fs.lastActive))
	}
	checkBooks(t, r.n)
}
