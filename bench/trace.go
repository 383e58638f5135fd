package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/wire"
)

// Tracing is done entirely from here: a decorator over overlay.Transport
// stamps every Send/SendOwned and every handler entry, and the driver stamps
// Sender.Send and Received(). Nothing inside the program is instrumented.
// Events stay in memory while the window runs; spans are built from them
// afterwards.

type evKind uint8

const (
	evSend       evKind = iota // a frame handed to the transport: t0..t1 is the call
	evRecv                     // a frame entering a node's handler at t0
	evSourceSend               // the driver's Sender.Send call
	evDelivered                // the message: due/send time .. verified on Received()
)

type event struct {
	t0, t1   int64 // ns since the tracer's epoch
	flow     wire.FlowID
	seq      uint32 // wire round number; for driver events the message number
	from, to wire.NodeID
	kind     evKind
	typ      wire.MsgType
}

// flowRef maps a per-hop wire flow id back to the driver's flow: message
// number = base + round/roundsPerMsg.
type flowRef struct {
	idx  int32
	base uint32
	dest wire.NodeID
}

type evShard struct {
	mu sync.Mutex
	ev []event
	_  [32]byte // pad mutex + slice header to a cache line of their own
}

// tracer decorates the cell's network. It forwards OwnedSender (and, in
// tracerUDP, CongestionAdvisor and LossReporter) so relays and senders take
// the same paths they take on the bare network.
type tracer struct {
	overlay.Transport
	owned overlay.OwnedSender

	enabled atomic.Bool
	epoch   time.Time
	every   uint32 // record messages whose number is a multiple of this
	rpm     uint32 // data rounds per message
	setup   bool   // record set-up frames too (the churn workload)

	shards [64]evShard

	flowMu sync.Mutex
	flows  map[wire.FlowID]flowRef
}

// tracerUDP adds the optional interfaces only the UDP network has, so a
// sender on TCP or ChanNetwork still sees a transport without a congestion
// advisor, as it would untraced.
type tracerUDP struct {
	*tracer
	overlay.CongestionAdvisor
	overlay.LossReporter
}

func newTracer(wl *workload) *tracer {
	return &tracer{
		epoch: time.Now(), every: uint32(wl.traceEvery), rpm: uint32(wl.roundsPerMsg()),
		setup: wl.churn, flows: make(map[wire.FlowID]flowRef),
	}
}

// wrap installs the tracer over a network and returns what the cell should
// hand to relays and senders.
func (t *tracer) wrap(inner overlay.Transport) overlay.Transport {
	t.Transport = inner
	t.owned, _ = inner.(overlay.OwnedSender)
	adv, isAdv := inner.(overlay.CongestionAdvisor)
	lr, isLR := inner.(overlay.LossReporter)
	if isAdv && isLR {
		return &tracerUDP{tracer: t, CongestionAdvisor: adv, LossReporter: lr}
	}
	return t
}

func (t *tracer) on() bool       { return t.enabled.Load() }
func (t *tracer) enable(on bool) { t.enabled.Store(on) }

// mapFlows records which driver flow the per-hop flow ids belong to.
func (t *tracer) mapFlows(ids map[wire.NodeID]wire.FlowID, dest wire.NodeID, idx int, base uint32) {
	t.flowMu.Lock()
	for _, f := range ids {
		t.flows[f] = flowRef{idx: int32(idx), base: base, dest: dest}
	}
	t.flowMu.Unlock()
}

type frameHdr struct {
	flow wire.FlowID
	seq  uint32
	typ  wire.MsgType
}

// sampled parses a frame's clear header and reports whether its message is
// one the traced window records. The decision depends only on the round
// number, which every hop preserves, so a message is recorded at all of its
// hops or at none.
func (t *tracer) sampled(data []byte) (frameHdr, bool) {
	if len(data) < wire.HeaderLen {
		return frameHdr{}, false
	}
	h := frameHdr{
		typ:  wire.MsgType(data[0]),
		flow: wire.FlowID(binary.BigEndian.Uint64(data[1:])),
		seq:  binary.BigEndian.Uint32(data[9:]),
	}
	switch h.typ {
	case wire.MsgData:
		return h, (h.seq/t.rpm)%t.every == 0
	case wire.MsgSetup:
		return h, t.setup
	}
	return h, false
}

func (t *tracer) record(e event) {
	sh := &t.shards[uint32(e.to)%uint32(len(t.shards))]
	sh.mu.Lock()
	sh.ev = append(sh.ev, e)
	sh.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// driverSpan records an interval the driver measured itself.
func (t *tracer) driverSpan(kind evKind, flowIdx int, seq uint32, t0, t1 time.Time) {
	if seq%t.every != 0 {
		return
	}
	t.record(event{kind: kind, t0: t.since(t0), t1: t.since(t1), seq: seq, to: wire.NodeID(flowIdx)})
}

// Attach implements overlay.Transport: the node's handler is entered through
// a stamp.
func (t *tracer) Attach(id wire.NodeID, h overlay.Handler) error {
	return t.Transport.Attach(id, func(from wire.NodeID, data []byte) {
		if t.enabled.Load() {
			if hd, ok := t.sampled(data); ok {
				now := t.since(time.Now())
				t.record(event{kind: evRecv, t0: now, t1: now, flow: hd.flow, seq: hd.seq, typ: hd.typ, from: from, to: id})
			}
		}
		h(from, data)
	})
}

// Send implements overlay.Transport.
func (t *tracer) Send(from, to wire.NodeID, data []byte) error {
	if !t.enabled.Load() {
		return t.Transport.Send(from, to, data)
	}
	hd, ok := t.sampled(data)
	if !ok {
		return t.Transport.Send(from, to, data)
	}
	t0 := time.Now()
	err := t.Transport.Send(from, to, data)
	t.record(event{kind: evSend, t0: t.since(t0), t1: t.since(time.Now()), flow: hd.flow, seq: hd.seq, typ: hd.typ, from: from, to: to})
	return err
}

// SendOwned implements overlay.OwnedSender. release is passed through
// untouched, so it fires exactly once, on whatever path the network takes.
// The headers are read before the call: once the network has the burst it
// may release, and the caller reuse, the memory behind bufs.
func (t *tracer) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	if !t.enabled.Load() {
		return t.sendOwned(from, to, bufs, release)
	}
	var stack [8]frameHdr
	hdrs := stack[:0]
	for _, b := range bufs {
		if hd, ok := t.sampled(b); ok {
			hdrs = append(hdrs, hd)
		}
	}
	if len(hdrs) == 0 {
		return t.sendOwned(from, to, bufs, release)
	}
	t0 := time.Now()
	err := t.sendOwned(from, to, bufs, release)
	s0, s1 := t.since(t0), t.since(time.Now())
	for _, hd := range hdrs {
		t.record(event{kind: evSend, t0: s0, t1: s1, flow: hd.flow, seq: hd.seq, typ: hd.typ, from: from, to: to})
	}
	return err
}

func (t *tracer) sendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	if t.owned != nil {
		return t.owned.SendOwned(from, to, bufs, release)
	}
	return overlay.SendOwnedOrCopy(t.Transport, from, to, bufs, release)
}

// span is one interval of one message's life. Spans of a message share its
// trace id; parent is the span that caused this one (0: none).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Node   uint32 `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

const firstSource = 100_000 // node ids from here up are source endpoints

type stageKey struct {
	trace uint64
	node  wire.NodeID
	seq   uint32
	typ   wire.MsgType
}

type frameKey struct {
	to, from wire.NodeID
	flow     wire.FlowID
	seq      uint32
	typ      wire.MsgType
}

// spans turns the recorded events into spans:
//
//	msg                 due/send time → verified on Received()   (driver)
//	  source.send       the Sender.Send call                      (driver)
//	    overlay.send    one Send call from a source endpoint
//	      overlay.hop   that Send's start → handler entry at the next node
//	  relay.stage       last input frame of a round enters a node → its first output frame leaves
//	    overlay.send    one Send/SendOwned call from that node
//	      overlay.hop
//	  relay.deliver     last frame enters the destination → message verified
func (t *tracer) spans() []span {
	var evs []event
	for i := range t.shards {
		evs = append(evs, t.shards[i].ev...)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t0 < evs[j].t0 })

	traceOf := func(e *event) (uint64, wire.NodeID, bool) {
		ref, ok := t.flows[e.flow]
		if !ok {
			return 0, 0, false
		}
		return uint64(ref.idx)<<32 | uint64(ref.base+e.seq/t.rpm), ref.dest, true
	}

	var out []span
	add := func(s span) int {
		s.ID = len(out) + 1
		out = append(out, s)
		return s.ID
	}
	root := make(map[uint64]int)        // trace → msg span
	srcSend := make(map[uint64]int)     // trace → source.send span
	delivered := make(map[uint64]int64) // trace → delivery time
	for i := range evs {
		e := &evs[i]
		id := uint64(e.to)<<32 | uint64(e.seq)
		switch e.kind {
		case evDelivered:
			root[id] = add(span{Trace: id, Name: "msg", Start: e.t0, End: e.t1})
			delivered[id] = e.t1
		}
	}
	for i := range evs {
		e := &evs[i]
		if e.kind != evSourceSend {
			continue
		}
		id := uint64(e.to)<<32 | uint64(e.seq)
		if p, ok := root[id]; ok {
			srcSend[id] = add(span{Trace: id, Parent: p, Name: "source.send", Start: e.t0, End: e.t1})
		}
	}

	// Pair frames: what entered each node, and what each node sent.
	recvAt := make(map[frameKey]int64)
	ins := make(map[stageKey][]int64)
	outs := make(map[stageKey][]*event)
	type entry struct {
		at   int64
		node wire.NodeID
	}
	lastIn := make(map[uint64]entry) // trace → last frame of its last round entering the destination
	for i := range evs {
		e := &evs[i]
		tr, dest, ok := traceOf(e)
		if !ok {
			continue
		}
		switch e.kind {
		case evRecv:
			recvAt[frameKey{e.to, e.from, e.flow, e.seq, e.typ}] = e.t0
			k := stageKey{tr, e.to, e.seq, e.typ}
			ins[k] = append(ins[k], e.t0)
			if end, ok := delivered[tr]; ok && e.to == dest && e.typ == wire.MsgData && (e.seq+1)%t.rpm == 0 && e.t0 <= end {
				lastIn[tr] = entry{e.t0, e.to} // events are in time order: the latest wins
			}
		case evSend:
			k := stageKey{tr, e.from, e.seq, e.typ}
			outs[k] = append(outs[k], e)
		}
	}
	for k, sends := range outs {
		p, ok := root[k.trace]
		if !ok {
			continue // the message was not delivered inside the traced window
		}
		parent := 0
		if k.node >= firstSource {
			parent = srcSend[k.trace]
		} else {
			// The stage span runs from the last input that arrived before
			// the node's first output, to that output.
			first := sends[0].t0
			last := int64(-1)
			for _, at := range ins[k] {
				if at <= first && at > last {
					last = at
				}
			}
			if last >= 0 {
				parent = add(span{Trace: k.trace, Parent: p, Name: "relay.stage", Node: uint32(k.node), Start: last, End: first})
			}
		}
		if parent == 0 {
			parent = p
		}
		for _, e := range sends {
			sid := add(span{Trace: k.trace, Parent: parent, Name: "overlay.send", Node: uint32(e.from), Start: e.t0, End: e.t1})
			if at, ok := recvAt[frameKey{e.to, e.from, e.flow, e.seq, e.typ}]; ok && at >= e.t0 {
				add(span{Trace: k.trace, Parent: sid, Name: "overlay.hop", Node: uint32(e.to), Start: e.t0, End: at})
			}
		}
	}
	for tr, in := range lastIn {
		add(span{Trace: tr, Parent: root[tr], Name: "relay.deliver", Node: uint32(in.node), Start: in.at, End: delivered[tr]})
	}
	selfTimes(out)
	return out
}

// selfTimes sets each span's self time: its duration minus the part of it
// that its children cover.
func selfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, upTo := int64(0), s.Start
		for _, k := range iv {
			lo, hi := max(k[0], upTo), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		s.Self = s.dur() - covered
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDurations collects the durations (µs) of spans with a name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].dur())/1e3)
		}
	}
	return out
}
