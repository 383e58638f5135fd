package relay

import (
	"container/heap"
	"time"
)

// A flow waits on the clock for at most three things, and a shard keeps the
// flows that are waiting in a min-heap on each one's earliest instant. The
// worker owns the heap; the clock's part is one timer per shard whose callback
// only hands runDeadlines to the mailbox and waits — so under a virtual clock,
// which fires one event and waits for quiescence, what a deadline causes
// still lands in the instant that fired it. Flows due at one instant run in
// the order they were armed (the order the clock would have fired a timer
// apiece), a flow's own waits in the order of the constants.

// The waits, as indices into flowState.due: stamps (Node.stamp), zero when
// not pending.
const (
	dlSetup = iota // SetupWait after the routing block decoded: forward the wave short
	dlRound        // the round window's next instant of interest (window.go)
	dlGap          // GapWait parked on a hole: write it off (receive.go)
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

// popDue takes the next wait whose instant has come off the queue, earliest
// first; nil when none has.
func (sh *shard) popDue(now int64) (fs *flowState, kind int) {
	if now >= sh.tickAt {
		sh.tickAt = 0 // the timer has fired; endBurst re-arms for the new head
	}
	if len(sh.deadlines) == 0 {
		return nil, 0
	}
	if fs = sh.deadlines[0]; fs.dueAt > now {
		return nil, 0
	}
	kind, _ = fs.earliest()
	sh.setDeadline(fs, kind, 0)
	return fs, kind
}

// runDeadlines is the tick: every wait that is due runs. A tick that finds
// none — its head was cancelled, or it is a stopped timer's that had already
// fired — is harmless.
func (n *Node) runDeadlines(sh *shard) {
	now := n.stamp(n.clk.Now())
	for fs, kind := sh.popDue(now); fs != nil; fs, kind = sh.popDue(now) {
		switch kind {
		case dlSetup:
			if fs.staging() {
				n.forwardSetup(sh, fs)
			}
		case dlRound:
			n.roundDeadline(sh, fs)
		case dlGap:
			n.skipGap(sh, fs)
		}
	}
}

// armTick keeps the clock timer on the queue: armed iff a wait is pending,
// never for later than the head. A head that moves later leaves the timer be
// (that tick finds nothing due, and this re-arms), so a shard admitting flows
// faster than their set-up waits run out arms a timer per tick, not per flow.
func (n *Node) armTick(sh *shard) {
	var head int64
	if len(sh.deadlines) > 0 {
		head = sh.deadlines[0].dueAt
	}
	if head == sh.tickAt || sh.tickAt != 0 && head > sh.tickAt {
		return
	}
	if sh.tickAt != 0 {
		sh.tick.Stop()
	}
	if sh.tickAt = head; head != 0 {
		sh.tick = n.clk.AfterFunc(time.Duration(head-n.stamp(n.clk.Now())), sh.onTick)
	}
}
