package main

import (
	"infoslicing/internal/metrics"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/transport"
)

// perLayer is the per-layer table (README.md has how each row is measured
// and which end-to-end metric it should move). Layers are this repository's
// packages, plus bench for the driver's own rows.
var perLayer = []metricDef{
	{"gf.mulslice_ns_per_kb", "ns"},
	{"code.encode_ns_per_round", "ns"},
	{"code.decode_ns_per_round", "ns"},
	{"code.recombine_ns_per_round", "ns"},
	{"wire.frame_ns_per_pkt", "ns"},
	{"wire.parse_ns_per_pkt", "ns"},
	{"wire.bytes_per_plain_byte", "ratio"},
	{"slcrypto.seal_ns_per_msg", "ns"},
	{"slcrypto.open_ns_per_msg", "ns"},
	{"core.build_us_per_graph", "us"},
	{"source.send_us_per_msg", "us"},
	{"source.establish_p50_ms", "ms"},
	{"source.send_drops", "count"},
	{"overlay.send_call_ns", "ns"},
	{"overlay.hop_p50_us", "us"},
	{"overlay.hop_p99_us", "us"},
	{"transport.frames_per_flush", "ratio"},
	{"transport.enqueued", "count"},
	{"transport.dropped", "count"},
	{"transport.send_failures", "count"},
	{"transport.reconnects", "count"},
	{"transport.udp_datagrams_out", "count"},
	{"transport.udp_datagrams_lost", "count"},
	{"transport.udp_srtt_us", "us"},
	{"transport.udp_window", "count"},
	{"transport.pkts", "count"},
	{"transport.bytes", "count"},
	{"transport.lost", "count"},
	{"transport.pkts_per_msg", "ratio"},
	{"relay.stage_p50_us", "us"},
	{"relay.stage_p99_us", "us"},
	{"relay.deliver_p50_us", "us"},
	{"relay.forward_ns_per_pkt", "ns"},
	{"relay.lookup_miss_ns", "ns"},
	{"relay.setup_us_per_flow", "us"},
	{"relay.regen_share", "ratio"},
	{"relay.queue_drops", "count"},
	{"relay.send_drops", "count"},
	{"relay.rounds_skipped", "count"},
	{"relay.app_dropped", "count"},
	{"relay.filter_misses", "count"},
	{"relay.flows_evicted", "count"},
	{"relay.flows_rejected", "count"},
	{"relay.mem_kb_per_flow", "KB"},
	{"bench.goodput_mbps", "Mb/s"},
	{"bench.cpu_us_per_msg", "us"},
	{"bench.latency_p90_us", "us"},
	{"bench.latency_p99_us", "us"},
	{"bench.gen_late_p99_us", "us"},
	{"bench.failed_share", "ratio"},
	{"bench.retransmits", "count"},
	{"bench.unattributed_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
}

// counters is a snapshot of every exported Stats() the cell has.
type counters struct {
	tr        overlay.TransportStats
	peer      transport.Stats        // socket networks only
	udp       transport.UDPPeerStats // UDP only
	relay     relay.Stats            // summed over the relays
	sendDrops int64                  // Sender.SendDrops over the data flows
}

func (c *cell) counters() counters {
	var s counters
	s.tr = c.inner.Stats()
	if p, ok := c.inner.(interface{ PeerStats() transport.Stats }); ok {
		s.peer = p.PeerStats()
	}
	if u, ok := c.inner.(interface{ UDPStats() transport.UDPPeerStats }); ok {
		s.udp = u.UDPStats()
	}
	for _, n := range c.nodes {
		st := n.Stats()
		s.relay.DataPacketsIn += st.DataPacketsIn
		s.relay.PacketsOut += st.PacketsOut
		s.relay.Regenerated += st.Regenerated
		s.relay.RoundsSkipped += st.RoundsSkipped
		s.relay.Dropped += st.Dropped
		s.relay.QueueDrops += st.QueueDrops
		s.relay.SendDrops += st.SendDrops
		s.relay.FlowsEvicted += st.FlowsEvicted
		s.relay.FlowsRejected += st.FlowsRejected
		s.relay.FilterMisses += st.FilterMisses
	}
	s.sendDrops = c.retiredSendDrops.Load()
	for _, sl := range c.slots {
		s.sendDrops += sl.cur.Load().snd.SendDrops()
	}
	return s
}

// sub is the change from an earlier snapshot. SRTT and the congestion
// window are states, not counts: they keep the later value.
func (a counters) sub(b counters) counters {
	a.tr.Packets -= b.tr.Packets
	a.tr.Bytes -= b.tr.Bytes
	a.tr.Lost -= b.tr.Lost
	a.peer.Enqueued -= b.peer.Enqueued
	a.peer.Dropped -= b.peer.Dropped
	a.peer.SendFailures -= b.peer.SendFailures
	a.peer.Flushes -= b.peer.Flushes
	a.peer.FramesOut -= b.peer.FramesOut
	a.peer.Reconnects -= b.peer.Reconnects
	a.udp.DatagramsOut -= b.udp.DatagramsOut
	a.udp.DatagramsLost -= b.udp.DatagramsLost
	a.relay.DataPacketsIn -= b.relay.DataPacketsIn
	a.relay.PacketsOut -= b.relay.PacketsOut
	a.relay.Regenerated -= b.relay.Regenerated
	a.relay.RoundsSkipped -= b.relay.RoundsSkipped
	a.relay.Dropped -= b.relay.Dropped
	a.relay.QueueDrops -= b.relay.QueueDrops
	a.relay.SendDrops -= b.relay.SendDrops
	a.relay.FlowsEvicted -= b.relay.FlowsEvicted
	a.relay.FlowsRejected -= b.relay.FlowsRejected
	a.relay.FilterMisses -= b.relay.FilterMisses
	a.sendDrops -= b.sendDrops
	return a
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledgerInput is everything a traced run measured.
type ledgerInput struct {
	wl    *workload
	delta counters // over the untraced windows

	attempted, failed     int64 // over the untraced windows
	resent                int64
	delivered, plainBytes int64
	cpuUsPerMsg, rate     float64
	goodput, p90, p99     []float64 // per untraced window
	late                  []float64
	establishMs           []float64
	memPerFlowKB          float64

	traced *windowStats
	spans  []span
	probes map[string]float64
}

// metrics assembles the per-layer table.
func (in *ledgerInput) metrics() map[string]metric {
	m := make(map[string]metric)
	for name, v := range in.probes {
		m[name] = single(v, "")
	}
	d, msgs := in.delta, float64(in.delivered)
	count := func(name string, v int64) { m[name] = single(float64(v), "count") }

	m["wire.bytes_per_plain_byte"] = single(ratio(float64(d.tr.Bytes), float64(in.plainBytes)), "")
	m["source.send_us_per_msg"] = over(in.traced.sendUs, "")
	m["source.establish_p50_ms"] = over(in.establishMs, "")
	count("source.send_drops", d.sendDrops)

	var sendNs, relaySendNs []float64
	tracedMsgs := 0
	for i := range in.spans {
		s := &in.spans[i]
		switch s.Name {
		case "msg":
			tracedMsgs++
		case "overlay.send":
			sendNs = append(sendNs, float64(s.dur()))
			if s.Node < firstSource {
				relaySendNs = append(relaySendNs, float64(s.dur()))
			}
		}
	}
	m["overlay.send_call_ns"] = single(metrics.Mean(sendNs), "")
	hop := spanDurations(in.spans, "overlay.hop")
	m["overlay.hop_p50_us"] = single(metrics.Percentile(hop, 50), "")
	m["overlay.hop_p99_us"] = single(metrics.Percentile(hop, 99), "")

	m["transport.frames_per_flush"] = single(ratio(float64(d.peer.FramesOut), float64(d.peer.Flushes)), "")
	count("transport.enqueued", d.peer.Enqueued)
	count("transport.dropped", d.peer.Dropped)
	count("transport.send_failures", d.peer.SendFailures)
	count("transport.reconnects", d.peer.Reconnects)
	count("transport.udp_datagrams_out", d.udp.DatagramsOut)
	count("transport.udp_datagrams_lost", d.udp.DatagramsLost)
	m["transport.udp_srtt_us"] = single(float64(d.udp.SRTT)/1e3, "")
	count("transport.udp_window", int64(d.udp.Window))
	count("transport.pkts", d.tr.Packets)
	count("transport.bytes", d.tr.Bytes)
	count("transport.lost", d.tr.Lost)
	m["transport.pkts_per_msg"] = single(ratio(float64(d.tr.Packets), msgs), "")

	stage := spanDurations(in.spans, "relay.stage")
	m["relay.stage_p50_us"] = single(metrics.Percentile(stage, 50), "")
	m["relay.stage_p99_us"] = single(metrics.Percentile(stage, 99), "")
	m["relay.deliver_p50_us"] = single(metrics.Percentile(spanDurations(in.spans, "relay.deliver"), 50), "")
	m["relay.regen_share"] = single(ratio(float64(d.relay.Regenerated), float64(d.relay.PacketsOut)), "")
	count("relay.queue_drops", d.relay.QueueDrops)
	count("relay.send_drops", d.relay.SendDrops)
	count("relay.rounds_skipped", d.relay.RoundsSkipped)
	count("relay.app_dropped", d.relay.Dropped)
	count("relay.filter_misses", d.relay.FilterMisses)
	count("relay.flows_evicted", d.relay.FlowsEvicted)
	count("relay.flows_rejected", d.relay.FlowsRejected)
	m["relay.mem_kb_per_flow"] = single(in.memPerFlowKB, "")

	m["bench.goodput_mbps"] = over(in.goodput, "")
	m["bench.cpu_us_per_msg"] = single(in.cpuUsPerMsg, "")
	m["bench.latency_p90_us"] = over(in.p90, "")
	m["bench.latency_p99_us"] = over(in.p99, "")
	m["bench.gen_late_p99_us"] = over(in.late, "")
	m["bench.failed_share"] = single(ratio(float64(in.failed), float64(in.attempted)), "")
	count("bench.retransmits", in.resent)

	// The ledger: what the layers account for of the CPU one message costs.
	// Each row is a cost per call times the calls one message makes; what
	// is left is the kernel's socket work, the runtime (scheduler, GC,
	// timers) and this driver, which nothing outside the program can
	// attribute further.
	rounds := float64(in.wl.roundsPerMsg())
	relayIn := ratio(float64(d.relay.DataPacketsIn), msgs)
	relayCalls := ratio(float64(len(relaySendNs)), float64(tracedMsgs))
	attributed := m["source.send_us_per_msg"].Value*1e3 + // seal, encode, frame, enqueue at the source
		in.probes["relay.forward_ns_per_pkt"]*relayIn + // parse, verify, stage, recode, frame at the relays
		metrics.Mean(relaySendNs)*relayCalls + // the relays' enqueue calls
		in.probes["code.decode_ns_per_round"]*rounds + in.probes["slcrypto.open_ns_per_msg"] // the destination
	m["bench.unattributed_share"] = single(1-ratio(attributed, in.cpuUsPerMsg*1e3), "")

	// What tracing cost: closed loops slow down, an open loop keeps its
	// rate and spends more CPU per message instead.
	t := in.traced
	overhead := 0.0
	if t.delivered > 0 {
		if in.wl.rate > 0 {
			overhead = ratio(float64(t.cpu)/1e3/float64(t.delivered), in.cpuUsPerMsg) - 1
		} else {
			overhead = 1 - ratio(float64(t.delivered)/t.wall.Seconds(), in.rate)
		}
	}
	m["bench.trace_overhead_share"] = single(overhead, "")

	for _, def := range perLayer {
		v := m[def.name]
		v.Unit = def.unit
		m[def.name] = v
	}
	return m
}
