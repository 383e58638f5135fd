package relay

import (
	"container/heap"
	"time"
)

// A flow waits on the clock for at most three things, and a shard keeps the
// flows that are waiting in a min-heap on each one's earliest instant. The
// shard waits for two more itself, its GC batch and its heartbeat sweep, each
// at the previous instant plus its interval. tick(now) runs all that is due by
// now and touches no clock: the driver's one timer per shard is armed for the
// earliest instant (arm), and its callback only hands the worker a wake token
// holding the clock — so under a virtual clock, which fires one event and
// waits for quiescence, what a deadline causes still lands in the instant that
// fired it. Flows due at one instant run in the order they were armed (the
// order the clock would have fired a timer apiece), a flow's own waits in the
// order of the constants.

// The waits, as indices into flowState.due: stamps (Node.stamp), zero when
// not pending.
const (
	dlSetup = iota // SetupWait after the routing block decoded: forward the wave short
	dlRound        // the round window's next instant of interest (window.go)
	dlGap          // the gap wait parked on a hole: write it off (receive.go)
	nDeadlines
)

// earliest returns the flow's first pending wait and its instant (zero: none).
func (fs *flowState) earliest() (kind int, at int64) {
	for k, d := range fs.due {
		if d != 0 && (at == 0 || d < at) {
			kind, at = k, d
		}
	}
	return kind, at
}

// deadlineQueue is the heap, intrusive: a flow knows its position (heapPos,
// one-based so that a zero flowState is out of it).
type deadlineQueue []*flowState

func (q deadlineQueue) Len() int { return len(q) }
func (q deadlineQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	return a.dueAt < b.dueAt || a.dueAt == b.dueAt && a.armSeq < b.armSeq
}
func (q deadlineQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].heapPos, q[j].heapPos = int32(i+1), int32(j+1)
}
func (q *deadlineQueue) Push(x any) {
	fs := x.(*flowState)
	*q = append(*q, fs)
	fs.heapPos = int32(len(*q))
}
func (q *deadlineQueue) Pop() any {
	old := *q
	fs := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	fs.heapPos = 0
	return fs
}

// setDeadline makes at the instant of the flow's wait of one kind, replacing
// the pending one; zero cancels it.
func (sh *shard) setDeadline(fs *flowState, kind int, at int64) {
	was := fs.dueAt
	fs.due[kind] = at
	switch _, fs.dueAt = fs.earliest(); {
	case fs.dueAt == was:
	case fs.dueAt == 0:
		heap.Remove(&sh.deadlines, int(fs.heapPos)-1)
	default:
		sh.armSeq++
		fs.armSeq = sh.armSeq
		if was == 0 {
			heap.Push(&sh.deadlines, fs)
		} else {
			heap.Fix(&sh.deadlines, int(fs.heapPos)-1)
		}
	}
}

// cancelDeadlines takes a flow that is leaving the table out of the queue.
func (sh *shard) cancelDeadlines(fs *flowState) {
	if fs.heapPos != 0 {
		heap.Remove(&sh.deadlines, int(fs.heapPos)-1)
	}
	fs.due, fs.dueAt = [nDeadlines]int64{}, 0
}

// tick runs what is due on the shard by now: every flow wait, earliest
// first, then the GC batch and the heartbeat sweep if their instants have
// come. A tick that finds nothing due — its head was cancelled, or it is a
// stopped timer's that had already fired — is harmless.
func (n *Node) tick(sh *shard, now int64) {
	sh.now = now
	for len(sh.deadlines) > 0 && sh.deadlines[0].dueAt <= now {
		fs := sh.deadlines[0]
		kind, _ := fs.earliest()
		sh.setDeadline(fs, kind, 0)
		switch kind {
		case dlSetup:
			if fs.staging() {
				n.forwardSetup(sh, fs)
			}
		case dlRound:
			n.roundDeadline(sh, fs, now)
		case dlGap:
			n.skipGap(sh, fs, now)
		}
	}
	// The GC batch evicts up to gcBatch flows idle past FlowTTL, coldest
	// first. The next periodic instants are the last plus whole intervals.
	if now >= sh.gcAt {
		for i := 0; i < gcBatch && sh.lruHead != nil && now-sh.lruHead.lastActive > int64(n.cfg.FlowTTL); i++ {
			n.removeFlow(sh, sh.lruHead, true)
		}
		sh.gcAt += ((now-sh.gcAt)/int64(n.cfg.GCInterval) + 1) * int64(n.cfg.GCInterval)
	}
	if sh.hbAt != 0 && now >= sh.hbAt {
		n.controlSweep(sh, now)
		sh.hbAt += ((now-sh.hbAt)/int64(n.cfg.Heartbeat) + 1) * int64(n.cfg.Heartbeat)
	}
}

// next is the shard's next instant of interest: its deadline queue's head,
// its GC batch or its heartbeat sweep, whichever is earliest.
func (sh *shard) next() int64 {
	at := sh.gcAt
	if sh.hbAt != 0 && sh.hbAt < at {
		at = sh.hbAt
	}
	if len(sh.deadlines) > 0 && sh.deadlines[0].dueAt < at {
		at = sh.deadlines[0].dueAt
	}
	return at
}

// arm keeps the driver's clock timer on the shard's next instant: never later
// than it. An instant that moves later leaves the timer be (that tick finds
// nothing due, and this re-arms), so a shard admitting flows faster than their
// set-up waits run out arms a timer per tick, not per flow.
func (n *Node) arm(sh *shard) {
	if at := sh.next(); sh.tickAt == 0 || at < sh.tickAt {
		if sh.tickAt != 0 {
			sh.timer.Stop()
		}
		sh.tickAt = at
		sh.timer = n.clk.AfterFunc(time.Duration(at-n.stamp(n.clk.Now())), sh.onTimer)
	}
}
