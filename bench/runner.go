package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/overlay"
)

type options struct {
	seed     int64
	windows  int
	window   time.Duration
	traced   bool
	spansOut string

	// attempts overrides maxAttempts (0: keep it). bench_test sets 1 to see
	// what the overlay alone loses.
	attempts int

	// quick is for tests: two set-ups, a 300 ms warm-up, 50 probe samples.
	// The numbers mean nothing; every path still runs.
	quick bool
	// wrap, when set, decorates the network under the tracer — bench_test
	// injects faults with it.
	wrap func(overlay.Transport) overlay.Transport
}

// setups is how many times a run sets the overlay up; setup_s is their
// median, and the last one is measured on.
const setups = 9

const cooldown = 300 * time.Millisecond

// runWorkload is one run: set-ups, warm-up, windows, and for a traced run
// the traced window and the probes.
func runWorkload(wl *workload, o options) (result, error) {
	res := result{Workload: wl.name, Seed: o.seed, Traced: o.traced, Windows: o.windows,
		WindowSec: o.window.Seconds(), Metrics: make(map[string]metric)}

	var tr *tracer
	wrap := o.wrap
	if o.traced {
		tr = newTracer(wl)
		wrap = func(inner overlay.Transport) overlay.Transport {
			if o.wrap != nil {
				inner = o.wrap(inner)
			}
			return tr.wrap(inner)
		}
	}

	var (
		c           *cell
		setupS      []float64
		establishMs []float64
		memPerFlow  float64
	)
	nSetups, warmup, samples := setups, wl.warmup, probeSamples
	if o.quick {
		nSetups, warmup, samples = 2, 300*time.Millisecond, 50
	}
	for i := 0; i < nSetups; i++ {
		if c != nil {
			establishMs = append(establishMs, c.establishMs...)
			c.close()
		}
		var heap0 uint64
		if o.traced && i == nSetups-1 {
			heap0 = heapAfterGC()
		}
		t0 := time.Now()
		var err error
		if c, err = newCell(wl, o.seed, wrap); err != nil {
			return res, err
		}
		if err := c.setupFlows(); err != nil {
			c.close()
			return res, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if o.traced && i == nSetups-1 {
			memPerFlow = c.memPerFlow(heap0)
		}
	}
	defer c.close()
	// A traced run spends its last two fifths in one traced window; the
	// windows before it are untraced and give the counters and the
	// throughput the traced window is compared with.
	untraced, tracedWin := o.windows, -1
	if o.traced {
		untraced = max(1, o.windows*3/5)
		tracedWin = untraced
	}
	r := newRun(c, tr, untraced+1) // the traced window's slot stays empty in an untraced run
	if o.attempts > 0 {
		r.attempts = o.attempts
	}
	r.start()
	r.runFor(warmup)
	c0 := c.counters()
	for w := 0; w < untraced; w++ {
		r.window(w, o.window)
	}
	c1 := c.counters()
	if o.traced {
		tr.enable(true)
		r.window(tracedWin, time.Duration(o.windows-untraced)*o.window)
		tr.enable(false)
	}
	// The generators run on for a moment after the last window, so its last
	// messages travel in the traffic they were sent in and not in the
	// silence after it.
	r.runFor(cooldown)
	r.halt()
	if r.err != nil {
		return res, r.err
	}
	establishMs = append(establishMs, c.establishMs...) // the last set-up's, and every renewal's

	ws := r.rec.windows[:untraced]
	var rate, cpuUs, p50, p90, p99, late, goodput []float64
	var delivered, plain int64
	for _, w := range ws {
		res.Attempted += w.attempted
		res.Failed += w.failed
		res.Resent += w.resent
		delivered += w.delivered
		plain += w.bytes
		if w.delivered == 0 {
			continue
		}
		rate = append(rate, float64(w.delivered)/w.wall.Seconds())
		goodput = append(goodput, float64(w.bytes)*8/1e6/w.wall.Seconds())
		cpuUs = append(cpuUs, float64(w.cpu)/1e3/float64(w.delivered))
		p50 = append(p50, metrics.Percentile(w.latUs, 50))
		p90 = append(p90, metrics.Percentile(w.latUs, 90))
		p99 = append(p99, metrics.Percentile(w.latUs, 99))
		if len(w.lateUs) > 0 {
			late = append(late, metrics.Percentile(w.lateUs, 99))
		}
		establishMs = append(establishMs, w.estMs...)
	}
	res.Correct = r.rec.corrupt.Load() == 0
	if res.Attempted == 0 {
		return res, fmt.Errorf("%s: nothing was attempted in %d windows of %v", wl.name, untraced, o.window)
	}

	if !o.traced {
		res.Metrics["setup_s"] = over(setupS, "s")
		res.Metrics["msgs_per_s"] = over(rate, "1/s")
		res.Metrics["latency_p50_us"] = over(p50, "us")
		res.Metrics["peak_rss_mb"] = single(peakRSSMB(), "MB")
		return res, nil
	}

	spans := tr.spans()
	if o.spansOut != "" {
		if err := writeSpans(o.spansOut, spans); err != nil {
			return res, err
		}
	}
	// The probes allocate, and an allocation while the run's heap is still
	// live pays GC assists that have nothing to do with the layer probed.
	c.close()
	runtime.GC()
	probes, err := probeLayers(wl, o.seed, samples)
	if err != nil {
		return res, err
	}
	in := ledgerInput{
		wl: wl, delta: c1.sub(c0), attempted: res.Attempted, failed: res.Failed, resent: res.Resent,
		delivered: delivered, plainBytes: plain,
		cpuUsPerMsg: median(cpuUs), rate: median(rate), goodput: goodput,
		p90: p90, p99: p99, late: late, establishMs: establishMs, memPerFlowKB: memPerFlow,
		traced: r.rec.windows[tracedWin], spans: spans, probes: probes,
	}
	res.Metrics = in.metrics()
	return res, nil
}

// window runs one measurement window: operations that complete inside it
// are credited to it, and it owns the CPU the process spent meanwhile.
func (r *run) window(w int, d time.Duration) {
	cpu0, t0 := cpuTime(), time.Now()
	r.rec.mu.Lock()
	r.rec.cur = w
	r.rec.mu.Unlock()
	time.Sleep(d)
	r.rec.mu.Lock()
	r.rec.cur = -1
	ws := r.rec.windows[w]
	ws.wall, ws.cpu = time.Since(t0), cpuTime()-cpu0
	r.rec.mu.Unlock()
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// memPerFlowKB is the heap the set-up's flows hold, all relays and the
// sender together, per flow. Flows the TTL already evicted are not counted.
func (c *cell) memPerFlow(heap0 uint64) float64 {
	heap1 := heapAfterGC()
	records := 0
	for _, n := range c.nodes {
		records += n.FlowTableSize()
	}
	flows := float64(records) / float64(c.wl.L*c.wl.DPrime)
	if flows < 1 || heap1 < heap0 {
		return 0
	}
	return float64(heap1-heap0) / 1024 / flows
}

// peakRSSMB is the process's high-water resident set, VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runAll runs every workload in a child process of its own, untraced then
// traced, runs times on consecutive seeds, and collects the results.
func runAll(o options, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []result
	for _, wl := range workloads {
		for i := 0; i < runs; i++ {
			for _, trace := range []string{"0", "1"} {
				args := []string{
					"-workload", wl.name, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
					"-windows", strconv.Itoa(o.windows), "-window", o.window.String(), "-trace", trace,
				}
				if trace == "1" && o.spansOut != "" {
					args = append(args, "-spans", o.spansOut+"."+wl.name)
				}
				cmd := exec.Command(self, args...)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s: %w", wl.name, err)
				}
				res, err := parseReport(&stdout)
				if err != nil {
					return fmt.Errorf("%s: %w", wl.name, err)
				}
				all = append(all, res)
			}
		}
	}
	if out != "" {
		return writeResults(out, all)
	}
	return nil
}

// parseReport echoes a child's report and picks its result line out.
func parseReport(report *bytes.Buffer) (result, error) {
	var res result
	found := false
	sc := bufio.NewScanner(report)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if js, ok := strings.CutPrefix(line, resultPrefix); ok {
			if err := json.Unmarshal([]byte(js), &res); err != nil {
				return res, err
			}
			found = true
			continue
		}
		if !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if !found {
		return res, fmt.Errorf("no result line in the child's output")
	}
	return res, sc.Err()
}
