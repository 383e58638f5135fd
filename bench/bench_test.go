package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

func quick(traced bool) options {
	return options{seed: 1, windows: 5, window: 300 * time.Millisecond, traced: traced, quick: true}
}

// The tables in the code are what BENCHMARK.json promises the driver.
func TestSpecMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %v in BENCHMARK.json, %v in the code", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// Every workload, untraced and traced, reports every metric of its kind,
// delivers only verified messages, and loses none.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				o := quick(traced)
				if traced {
					o.spansOut = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				res, err := runWorkload(wl, o)
				if err != nil {
					t.Fatalf("traced %v: %v", traced, err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("traced %v: correct %v attempted %d", traced, res.Correct, res.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced %v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced %v: metric %s = %+v (present %v)", traced, d.name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, must never be 0", d.name, m.Value)
					}
				}
				if traced {
					for _, name := range []string{"overlay.hop_p50_us", "relay.stage_p50_us", "source.send_us_per_msg", "relay.forward_ns_per_pkt"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s is %v: the trace or the probe saw nothing", name, res.Metrics[name].Value)
						}
					}
					if fi, err := os.Stat(o.spansOut); err != nil || fi.Size() == 0 {
						t.Errorf("no spans written: %v", err)
					}
				}
			}
		})
	}
}

// faulty decorates a network and mangles every data frame of some rounds on
// its way out of the source endpoints.
type faulty struct {
	overlay.Transport
	owned  overlay.OwnedSender
	mangle func(frame []byte) []byte // nil result: the frame is dropped
}

func (f *faulty) hit(from wire.NodeID, data []byte) bool {
	return from >= firstSource && len(data) > wire.HeaderLen && wire.MsgType(data[0]) == wire.MsgData &&
		binary.BigEndian.Uint32(data[9:])%64 == 40
}

func (f *faulty) Send(from, to wire.NodeID, data []byte) error {
	if f.hit(from, data) {
		if data = f.mangle(append([]byte(nil), data...)); data == nil {
			return nil
		}
	}
	return f.Transport.Send(from, to, data)
}

func (f *faulty) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	return f.owned.SendOwned(from, to, bufs, release) // relays only; sources use Send
}

func withFault(mangle func([]byte) []byte) func(overlay.Transport) overlay.Transport {
	return func(inner overlay.Transport) overlay.Transport {
		return &faulty{Transport: inner, owned: inner.(overlay.OwnedSender), mangle: mangle}
	}
}

// A message the overlay loses is sent again and the operation succeeds: the
// dropped rounds cost retransmissions, not failures.
func TestLostMessageIsSentAgain(t *testing.T) {
	o := quick(false)
	o.wrap = withFault(func([]byte) []byte { return nil })
	res, err := runWorkload(findWorkload("bulk_tcp"), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Resent == 0 {
		t.Errorf("failed %d, sent again %d of %d attempted: the dropped rounds should cost retransmissions and no failure", res.Failed, res.Resent, res.Attempted)
	}
	if !res.Correct {
		t.Error("a copy that arrives after its operation is settled is not a wrong message")
	}
}

// An operation that has had all its attempts is a failed one, counted against
// those attempted, and costs the driver its timeouts and no more.
func TestLostMessageIsCountedAndNeverHangs(t *testing.T) {
	o := quick(false)
	o.attempts = 1
	o.wrap = withFault(func([]byte) []byte { return nil })
	start := time.Now()
	res, err := runWorkload(findWorkload("bulk_tcp"), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("failed %d of %d attempted: the dropped rounds should fail some and only some", res.Failed, res.Attempted)
	}
	if !res.Correct {
		t.Error("a lost message is not a wrong one")
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("the run took %v: something waited on a lost message", took)
	}
}

// A byte flipped in transit never reaches the application: the slot CRC
// rejects the slice, the round cannot be decoded, and the run reports the
// message as failed.
func TestCorruptionInTransitFailsOperations(t *testing.T) {
	o := quick(false)
	o.attempts = 1
	o.wrap = withFault(func(frame []byte) []byte {
		frame[len(frame)/2] ^= 0x40
		return frame
	})
	res, err := runWorkload(findWorkload("bulk_tcp"), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Error("corrupted rounds failed no operation")
	}
}

// A delivered message that is not the one sent makes the run incorrect.
func TestWrongPayloadMakesTheRunIncorrect(t *testing.T) {
	p := newPayloads(7, 256)
	buf := make([]byte, 256)
	p.fill(buf, 3, 41)
	if seq, ok := p.check(buf, 3); !ok || seq != 41 {
		t.Fatalf("a genuine message did not verify: seq %d ok %v", seq, ok)
	}
	for name, tamper := range map[string]func([]byte) []byte{
		"flipped body bit": func(b []byte) []byte { b[200] ^= 1; return b },
		"other sequence":   func(b []byte) []byte { binary.BigEndian.PutUint32(b[4:], 42); return b },
		"truncated":        func(b []byte) []byte { return b[:255] },
		"recomputed crc": func(b []byte) []byte { // right CRC, but not under this run's seed
			b[100] ^= 1
			binary.BigEndian.PutUint64(b[8:], uint64(crc32.Checksum(b[msgHeader:], castagnoli)))
			return b
		},
	} {
		if _, ok := p.check(tamper(append([]byte(nil), buf...)), 3); ok {
			t.Errorf("%s: verified", name)
		}
	}
	if _, ok := p.check(buf, 4); ok {
		t.Error("a message of flow 3 verified on flow 4")
	}

	// The same check is what the receive path applies.
	wl := findWorkload("bulk_tcp")
	c, err := newCell(wl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.setupFlows(); err != nil {
		t.Fatal(err)
	}
	r := newRun(c, nil, 1)
	f := c.slots[0].cur.Load()
	g := f.snd.Graph()
	msg := make([]byte, r.pay.size)
	r.pay.fill(msg, 0, f.claim(sent{op: &op{slot: f.slot}, at: time.Now()}))
	msg[len(msg)-1] ^= 1
	r.accept(relay.Message{Flow: g.Flows[g.Dest], Data: msg}, time.Now())
	if r.rec.corrupt.Load() != 1 {
		t.Errorf("a tampered delivery was counted %d times as corrupt, want 1", r.rec.corrupt.Load())
	}
}

// bare is a network without an owned path, so the tracer has to fall back
// to copying sends.
type bare struct {
	overlay.TransportBase
	sent int
}

func (b *bare) Attach(wire.NodeID, overlay.Handler) error { return nil }
func (b *bare) Detach(wire.NodeID)                        {}
func (b *bare) Send(_, _ wire.NodeID, _ []byte) error     { b.sent++; return nil }

// The tracer passes SendOwned's release through exactly once on every path:
// tracing on or off, sampled or not, delivered, dropped at a down or unknown
// node, and over a network that has no owned path at all. A second release
// panics in Slab.Release; a missing one leaves the slab outstanding.
func TestTracerReleasesOwnedBurstsExactlyOnce(t *testing.T) {
	wl := findWorkload("bulk_tcp")
	pool := transport.NewSlabPool(0, 0)
	frame := func(seq uint32) []byte {
		return wire.AppendPacketHeader(nil, wire.MsgData, 99, seq, 2, 0, 0)
	}
	for name, inner := range map[string]overlay.Transport{
		"chan": overlay.NewChanNetwork(overlay.Unshaped(), nil),
		"tcp":  overlay.NewTCPNetwork(),
		"bare": &bare{},
	} {
		tr := newTracer(wl)
		net := tr.wrap(inner)
		got := make(chan struct{}, 1024)
		for _, id := range []wire.NodeID{1, 2, 3} {
			if err := net.Attach(id, func(wire.NodeID, []byte) { got <- struct{}{} }); err != nil {
				t.Fatal(err)
			}
		}
		net.Fail(3)
		owned, ok := net.(overlay.OwnedSender)
		if !ok {
			t.Fatalf("%s: the traced network lost its owned path", name)
		}
		sends := 0
		for _, on := range []bool{false, true} {
			tr.enable(on)
			for _, to := range []wire.NodeID{2, 3, 4} { // live, down, unknown
				slab := pool.Get(64)
				bufs := [][]byte{frame(0), frame(1), {0xff}}   // sampled, sampled, too short to parse
				_ = owned.SendOwned(1, to, bufs, slab.Release) // a drop is reported as an error or not at all; release is what is checked
				sends++
			}
		}
		if name != "bare" {
			for i := 0; i < 2*3; i++ { // both bursts to the live node arrive whole
				select {
				case <-got:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: frame %d of the bursts to the live node never arrived", name, i)
				}
			}
		}
		net.Close()
		if n := pool.Outstanding(); n != 0 {
			t.Errorf("%s: %d of %d slabs still outstanding after close", name, n, sends)
		}
		if name != "bare" && len(tr.spans()) != 0 {
			t.Errorf("%s: spans without a mapped flow", name)
		}
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 10}, [3]float64{1.5, 3, 7}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	} {
		q1, med, q3 := quantiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quantiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate []float64, lat metric) string {
		var runs []result
		for _, v := range rate {
			runs = append(runs, result{Workload: "w", Metrics: map[string]metric{
				"rate": single(v, "1/s"), "lat": lat, "noisy": single(v*v, "us")}})
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"rate","better":"higher","bound":0.1},
		{"name":"lat","better":"lower","bound":0.1},
		{"name":"noisy","better":"lower","bound":0.01}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.json", []float64{100, 101, 99, 100}, single(50, "us"))
	b := write("b.json", []float64{80, 81, 79, 80}, single(52, "us"))
	var out bytes.Buffer
	if err := compareFiles(&out, a, b, spec); err != nil {
		t.Fatal(err)
	}
	for metricName, verdict := range map[string]string{"rate": "worse", "lat": "within", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metricName {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %q, want %q\n%s", metricName, f[len(f)-1], verdict, out.String())
				}
			}
		}
		if !found {
			t.Errorf("%s not compared:\n%s", metricName, out.String())
		}
	}
}

func TestRefusesMorePsThanProcessors(t *testing.T) {
	old := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(old)
	t.Setenv("GOMAXPROCS", "set") // prepare leaves an explicit setting alone
	if _, err := prepare(); err == nil {
		t.Error("prepare accepted GOMAXPROCS above NumCPU")
	}
}
