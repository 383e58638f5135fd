package transport

import (
	"testing"
	"time"
)

func TestRTTEstimatorFirstSample(t *testing.T) {
	e := newRTTEstimator(0)
	if got := e.RTO(); got != initialRTO {
		t.Fatalf("pre-sample RTO = %v, want %v", got, initialRTO)
	}
	e.Observe(100 * time.Millisecond)
	if got := e.SRTT(); got != 100*time.Millisecond {
		t.Fatalf("SRTT after first sample = %v, want 100ms", got)
	}
	if got := e.RTTVar(); got != 50*time.Millisecond {
		t.Fatalf("RTTVAR after first sample = %v, want 50ms", got)
	}
	// RFC 6298: RTO = SRTT + 4·RTTVAR = 100 + 200 = 300ms.
	if got := e.RTO(); got != 300*time.Millisecond {
		t.Fatalf("RTO after first sample = %v, want 300ms", got)
	}
}

func TestRTTEstimatorConvergence(t *testing.T) {
	e := newRTTEstimator(0)
	for i := 0; i < 100; i++ {
		e.Observe(40 * time.Millisecond)
	}
	if srtt := e.SRTT(); srtt != 40*time.Millisecond {
		t.Fatalf("SRTT did not converge: %v", srtt)
	}
	// Variance decays toward zero on a steady path, so the RTO converges
	// to the clamp floor.
	if rto := e.RTO(); rto > 45*time.Millisecond {
		t.Fatalf("RTO did not tighten on steady path: %v", rto)
	}
}

func TestRTTEstimatorKarnBackoff(t *testing.T) {
	e := newRTTEstimator(0)
	e.Observe(50 * time.Millisecond)
	base := e.RTO()
	e.Backoff()
	if got := e.RTO(); got != 2*base {
		t.Fatalf("first backoff RTO = %v, want %v", got, 2*base)
	}
	e.Backoff()
	e.Backoff()
	if got := e.RTO(); got != 8*base {
		t.Fatalf("third backoff RTO = %v, want %v", got, 8*base)
	}
	// Backoff is clamped at MaxRTO no matter how many timeouts pile up.
	for i := 0; i < 20; i++ {
		e.Backoff()
	}
	if got := e.RTO(); got != defaultMaxRTO {
		t.Fatalf("RTO not clamped: %v", got)
	}
	// A fresh unambiguous sample discards the backoff entirely.
	e.Observe(50 * time.Millisecond)
	if got := e.RTO(); got >= 2*base {
		t.Fatalf("Observe did not reset backed-off RTO: %v", got)
	}
}

func TestRTTEstimatorClampFloor(t *testing.T) {
	e := newRTTEstimator(0)
	for i := 0; i < 50; i++ {
		e.Observe(time.Millisecond) // loopback-fast path
	}
	if got := e.RTO(); got != minRTO {
		t.Fatalf("RTO below floor: %v, want %v", got, minRTO)
	}
	e.Observe(-time.Second) // negative samples are ignored
	if got := e.SRTT(); got <= 0 {
		t.Fatalf("negative sample corrupted SRTT: %v", got)
	}
}

func TestCubicSlowStartAndCap(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCubicWindow(4, 64)
	if got := c.Window(); got != 4 {
		t.Fatalf("initial window = %d, want 4", got)
	}
	// Slow start: +1 per acked datagram, up to the cap.
	c.OnAck(now, 4)
	if got := c.Window(); got != 8 {
		t.Fatalf("window after 4 acks = %d, want 8", got)
	}
	for i := 0; i < 100; i++ {
		c.OnAck(now.Add(time.Duration(i)*time.Millisecond), 16)
	}
	if got := c.Window(); got != 64 {
		t.Fatalf("window exceeded cap: %d", got)
	}
}

func TestCubicLossShrinkAndRegrowth(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCubicWindow(100, 1024)
	c.ssthresh = 0 // force congestion avoidance from the start
	c.OnLoss(now, 50*time.Millisecond)
	after := c.Window()
	if want := 70; after != want { // 100 × β(0.7)
		t.Fatalf("window after loss = %d, want %d", after, want)
	}
	// Regrowth follows the cubic back toward wMax=100: concave approach,
	// i.e. monotonically non-decreasing and near wMax after K seconds
	// (K = cbrt(100·0.3/0.4) ≈ 4.2s).
	prev := c.Window()
	tick := now
	for i := 0; i < 50; i++ {
		tick = tick.Add(100 * time.Millisecond)
		c.OnAck(tick, 10)
		if w := c.Window(); w < prev {
			t.Fatalf("cubic regrowth not monotonic: %d -> %d at step %d", prev, w, i)
		} else {
			prev = w
		}
	}
	if got := c.Window(); got < 90 {
		t.Fatalf("window did not recover toward wMax within 5s: %d", got)
	}
}

func TestCubicOneLossPerRTT(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCubicWindow(100, 1024)
	c.ssthresh = 0
	guard := 50 * time.Millisecond
	c.OnLoss(now, guard)
	w1 := c.Window()
	// A second loss signal inside the guard interval is the same
	// congestion event: no further decrease.
	c.OnLoss(now.Add(10*time.Millisecond), guard)
	if got := c.Window(); got != w1 {
		t.Fatalf("loss inside guard shrank window: %d -> %d", w1, got)
	}
	// Past the guard it is a fresh event.
	c.OnLoss(now.Add(60*time.Millisecond), guard)
	if got := c.Window(); got >= w1 {
		t.Fatalf("loss past guard did not shrink window: %d", got)
	}
}

func TestCubicTimeoutCollapse(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCubicWindow(100, 1024)
	c.OnTimeout(now)
	if got := c.Window(); got != 2 {
		t.Fatalf("window after timeout = %d, want minW=2", got)
	}
	// ssthresh hands slow start over to cubic near β·(old window).
	c.OnAck(now.Add(time.Millisecond), 100)
	if got := c.Window(); got != 70 {
		t.Fatalf("slow-start after timeout capped at %d, want ssthresh=70", got)
	}
}

func TestCubicWindowNeverBelowOne(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCubicWindow(2, 8)
	for i := 0; i < 10; i++ {
		c.OnLoss(now.Add(time.Duration(i)*time.Second), time.Millisecond)
	}
	if got := c.Window(); got < 1 {
		t.Fatalf("window collapsed below 1: %d", got)
	}
}
