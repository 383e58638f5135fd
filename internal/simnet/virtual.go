package simnet

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event classes order same-instant events: network deliveries land before
// timers stamped the same virtual instant. A timeout that expires "at the
// same tick" as the packet it was waiting for therefore loses the race,
// deterministically — the convention the timer-edge tests pin.
const (
	classNet   = 0
	classClock = 1
)

// netSink is the closure-free delivery interface between the clock and a
// network attached to it (SimNet). Events of class classNet carry plain
// data; at dispatch the clock hands them back to the sink that scheduled
// them instead of invoking a per-event closure.
type netSink interface {
	netDeliver(from, to uint64, dstIdx int32, epoch uint64, payload []byte, pbuf *payloadBuf)
}

// VirtualClock is a deterministic Clock: time is a number that advances only
// when the clock's driver (the test goroutine, via Step/RunFor/AwaitCond)
// fires the next scheduled event AND every busy token has been released.
// Events fire one at a time, on the driver, in the canonical order
// documented on event. The zero value is not usable; call NewVirtualClock.
//
// Events live in a slab-backed binary heap (queue.go); no per-event
// allocation survives steady state.
type VirtualClock struct {
	mu    sync.Mutex
	cond  *sync.Cond
	epoch time.Time
	nowNs int64
	nowA  atomic.Int64 // mirror of nowNs for lock-free Now/Elapsed
	busy  int
	seq   uint64 // tiebreak for clock-class events
	queue *eventQueue
	sinks []netSink
}

// NewVirtualClock creates a virtual clock starting at a fixed, arbitrary
// epoch (so time.Time zero-value semantics never collide with "the start of
// the simulation").
func NewVirtualClock() *VirtualClock {
	c := &VirtualClock{
		epoch: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
		queue: newEventQueue(),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// registerSink attaches a network to the clock, returning the sink id its
// scheduled events carry.
func (c *VirtualClock) registerSink(s netSink) uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sinks = append(c.sinks, s)
	return uint8(len(c.sinks) - 1)
}

func (c *VirtualClock) setNowLocked(ns int64) {
	c.nowNs = ns
	c.nowA.Store(ns)
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	return c.epoch.Add(time.Duration(c.nowA.Load()))
}

// Elapsed returns virtual time since the epoch — the timestamp traces use.
func (c *VirtualClock) Elapsed() time.Duration {
	return time.Duration(c.nowA.Load())
}

// Hold implements Clock.
func (c *VirtualClock) Hold() func() {
	c.mu.Lock()
	c.busy++
	c.mu.Unlock()
	var once sync.Once
	return func() { once.Do(c.release) }
}

func (c *VirtualClock) release() {
	c.mu.Lock()
	c.busy--
	if c.busy == 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// scheduleNet schedules a network delivery with the canonical (from, to,
// senderSeq) ordering key. SimNet is the only caller.
func (c *VirtualClock) scheduleNet(sink uint8, delay time.Duration, from, to uint64, seq uint64, dstIdx int32, epoch uint64, payload []byte, pbuf *payloadBuf) {
	if delay < 0 {
		delay = 0
	}
	c.mu.Lock()
	i := c.queue.slab.alloc()
	e := c.queue.slab.at(i)
	e.when = c.nowNs + int64(delay)
	e.class = classNet
	e.from, e.to, e.seq = from, to, seq
	e.dstIdx, e.epoch = dstIdx, epoch
	e.payload, e.pbuf = payload, pbuf
	e.sink = sink
	c.queue.schedule(i)
	c.mu.Unlock()
}

// scheduleFnLocked allocates a clock-class event; callers hold c.mu.
func (c *VirtualClock) scheduleFnLocked(d time.Duration, f func()) (evRef, uint32) {
	if d < 0 {
		d = 0
	}
	i := c.queue.slab.alloc()
	e := c.queue.slab.at(i)
	e.when = c.nowNs + int64(d)
	e.class = classClock
	e.from, e.to = 0, 0
	e.seq = c.seq
	c.seq++
	e.fn = f
	gen := e.gen
	c.queue.schedule(i)
	return i, gen
}

// AfterFunc implements Clock.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	i, gen := c.scheduleFnLocked(d, f)
	c.mu.Unlock()
	return &vTimer{c: c, ref: i, gen: gen}
}

type vTimer struct {
	c   *VirtualClock
	ref evRef
	gen uint32
}

// Stop implements Timer: it reports whether the callback was still pending.
// A handle whose record was already fired (and recycled) is detected by
// the generation counter.
func (t *vTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	e := t.c.queue.slab.at(t.ref)
	if e.gen != t.gen || e.stopped {
		return false
	}
	e.stopped = true
	return true
}

// Every implements Clock. The callback runs on the event loop; rescheduling
// happens after each firing, so a slow callback cannot pile up ticks.
func (c *VirtualClock) Every(interval time.Duration, f func()) Task {
	t := &vTask{c: c, interval: interval, fn: f}
	// One closure for the task's whole life: each cycle re-arms the same
	// record shape with the same fn, so periodic tasks cost zero
	// allocations per tick.
	t.run = func() {
		c.mu.Lock()
		stopped := t.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		t.fn()
		c.mu.Lock()
		if !t.stopped {
			t.scheduleLocked()
		}
		c.mu.Unlock()
	}
	c.mu.Lock()
	t.scheduleLocked()
	c.mu.Unlock()
	return t
}

type vTask struct {
	c        *VirtualClock
	interval time.Duration
	fn       func()
	run      func()
	stopped  bool
	cur      evRef
	curGen   uint32
}

func (t *vTask) scheduleLocked() {
	t.cur, t.curGen = t.c.scheduleFnLocked(t.interval, t.run)
}

// Stop implements Task.
func (t *vTask) Stop() {
	t.c.mu.Lock()
	t.stopped = true
	e := t.c.queue.slab.at(t.cur)
	if e.gen == t.curGen {
		e.stopped = true
	}
	t.c.mu.Unlock()
}

// After implements Clock. The returned channel is buffered; the send happens
// on the event loop and the receiving goroutine is NOT tracked for
// quiescence — see the interface doc.
func (c *VirtualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.AfterFunc(d, func() { ch <- c.Now() })
	return ch
}

// Go starts fn on its own goroutine holding a busy token for its lifetime:
// the clock treats it as running work until fn returns (or parks in Sleep).
func (c *VirtualClock) Go(fn func()) {
	release := c.Hold()
	go func() {
		defer release()
		fn()
	}()
}

// Sleep implements Clock for goroutines started with Go: the goroutine's
// busy token is parked while it sleeps and handed back — busy again — the
// virtual instant the timer fires, so work done after Sleep is stamped at
// the right time. Must not be called from event callbacks.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	c.mu.Lock()
	c.scheduleFnLocked(d, func() {
		c.mu.Lock()
		c.busy++ // wake holding a token: the sleeper is running work again
		c.mu.Unlock()
		close(done)
	})
	c.busy-- // park this goroutine's token
	if c.busy == 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	<-done
}

// quiesceLocked blocks until every busy token is released; callers hold c.mu.
func (c *VirtualClock) quiesceLocked() {
	for c.busy > 0 {
		c.cond.Wait()
	}
}

// Step fires the next pending event (advancing time to it) and waits for all
// resulting work to quiesce. It returns false when no events remain. Only
// the driving goroutine may call Step and the Run helpers.
func (c *VirtualClock) Step() bool {
	return c.stepBefore(0, false)
}

// stepBefore fires the next event whose time is <= limit (when bounded). It
// returns false — without advancing past limit — if none qualifies. This is
// the clock's only dispatch path: one event per call, on the driver.
func (c *VirtualClock) stepBefore(limitNs int64, bounded bool) bool {
	c.mu.Lock()
	c.quiesceLocked()
	i, ok := c.queue.peek()
	if !ok || (bounded && c.queue.slab.at(i).when > limitNs) {
		c.mu.Unlock()
		return false
	}
	e := c.queue.slab.at(i)
	c.queue.pop()
	if e.when > c.nowNs {
		c.setNowLocked(e.when)
	}
	class, fn, sink := e.class, e.fn, e.sink
	from, to, dstIdx, epoch := e.from, e.to, e.dstIdx, e.epoch
	payload, pbuf := e.payload, e.pbuf
	c.queue.slab.release(i)
	c.busy++ // the dispatch itself holds a token while the callback runs
	c.mu.Unlock()
	if class == classClock {
		fn()
	} else {
		c.sinks[sink].netDeliver(from, to, dstIdx, epoch, payload, pbuf)
	}
	c.release()
	c.mu.Lock()
	c.quiesceLocked()
	c.mu.Unlock()
	return true
}

// RunFor processes every event within the next d of virtual time, then sets
// the clock to exactly now+d.
func (c *VirtualClock) RunFor(d time.Duration) {
	c.mu.Lock()
	limit := c.nowNs + int64(d)
	c.mu.Unlock()
	for c.stepBefore(limit, true) {
	}
	c.mu.Lock()
	if limit > c.nowNs {
		c.setNowLocked(limit)
	}
	c.mu.Unlock()
}

// RunUntilIdle processes events until none remain.
func (c *VirtualClock) RunUntilIdle() {
	for c.Step() {
	}
}

// AwaitCond steps virtual time until cond returns true, at most max virtual
// time ahead. The condition is evaluated only at quiescence, so everything
// the last event caused is visible to it. Returns whether cond held. If the
// event queue drains before the deadline the remaining virtual time is
// consumed in one jump (periodic tasks normally keep the queue non-empty).
func (c *VirtualClock) AwaitCond(max time.Duration, cond func() bool) bool {
	c.mu.Lock()
	limit := c.nowNs + int64(max)
	c.mu.Unlock()
	if cond() {
		return true
	}
	for {
		if !c.stepBefore(limit, true) {
			c.mu.Lock()
			if limit > c.nowNs {
				c.setNowLocked(limit)
			}
			c.mu.Unlock()
			// Only the final verdict pays for the settle retries: between
			// steps a cond made true by an untracked goroutine is caught
			// one event later anyway.
			return c.condSettled(cond)
		}
		if cond() {
			return true
		}
	}
}

// condSettled evaluates cond, giving unsynchronized goroutines (channel
// demultiplexers and other hops the busy counter cannot see) a few chances
// to drain before concluding the condition is false. The retries cost
// microseconds of real time and do not advance virtual time.
func (c *VirtualClock) condSettled(cond func() bool) bool {
	if cond() {
		return true
	}
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Microsecond)
		if cond() {
			return true
		}
	}
	return false
}
