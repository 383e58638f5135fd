package simnet

// The clock's event queue: one binary heap of refs into a slab of event
// records, popped in the canonical order (when, class, from, to, seq).
//
//   - Zero per-event heap allocation: events live in one growing []event
//     slab addressed by int32 refs with a freelist; a generation counter
//     per slot makes stale Timer handles safe after the slot is recycled.
//   - Cancellation is lazy: Stop marks the record, and peek recycles it
//     when it reaches the top.
//   - The order is total, so the sequence of fired events, and with it
//     every trace and figure, is a function of the schedule alone.

// evRef indexes the event slab; nilRef ends the freelist and means no event.
type evRef int32

const nilRef evRef = -1

// event is one scheduled callback or network delivery. Records are owned
// by the slab: callers hold an (evRef, gen) pair, never a pointer, so the
// slab may recycle freely. Ordering is canonical: (when, class, from, to,
// seq) — for network deliveries (from, to) is the link and seq a
// per-sender counter; for clock events from=to=0 and seq is the global
// arm-order counter.
type event struct {
	when int64 // ns since the clock epoch
	from uint64
	to   uint64
	seq  uint64

	// clock-class payload
	fn func()

	// net-class payload (closure-free delivery: the sink re-derives
	// everything else from these).
	payload []byte
	pbuf    *payloadBuf // pooled backing buffer, nil if unpooled
	epoch   uint64
	dstIdx  int32

	next    evRef // freelist link
	gen     uint32
	sink    uint8 // index into the clock's registered net sinks
	class   uint8
	stopped bool
}

// eventSlab is the arena all events live in.
type eventSlab struct {
	evs  []event
	free evRef
	live int
}

func (s *eventSlab) alloc() evRef {
	s.live++
	if s.free != nilRef {
		i := s.free
		s.free = s.evs[i].next
		s.evs[i].next = nilRef
		return i
	}
	s.evs = append(s.evs, event{next: nilRef})
	return evRef(len(s.evs) - 1)
}

// release recycles a record. The generation bump invalidates any
// outstanding Timer handle to this slot.
func (s *eventSlab) release(i evRef) {
	e := &s.evs[i]
	e.fn = nil
	e.payload = nil
	e.pbuf = nil
	e.stopped = false
	e.gen++
	e.next = s.free
	s.free = i
	s.live--
}

func (s *eventSlab) at(i evRef) *event { return &s.evs[i] }

// less is the canonical event order.
func (s *eventSlab) less(i, j evRef) bool {
	a, b := &s.evs[i], &s.evs[j]
	if a.when != b.when {
		return a.when < b.when
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.from != b.from {
		return a.from < b.from
	}
	if a.to != b.to {
		return a.to < b.to
	}
	return a.seq < b.seq
}

// eventQueue holds the pending events.
type eventQueue struct {
	slab eventSlab
	heap []evRef
}

func newEventQueue() *eventQueue { return &eventQueue{slab: eventSlab{free: nilRef}} }

// peek returns the next event in canonical order without removing it.
// Cancelled records found at the top are recycled on the way.
func (q *eventQueue) peek() (evRef, bool) {
	for len(q.heap) > 0 {
		top := q.heap[0]
		if !q.slab.at(top).stopped {
			return top, true
		}
		q.pop()
		q.slab.release(top)
	}
	return nilRef, false
}

// schedule queues an allocated record. schedule and pop are a manual binary
// heap ordered by slab.less (container/heap would force an interface
// allocation per op).
func (q *eventQueue) schedule(i evRef) {
	h := append(q.heap, i)
	q.heap = h
	for j := len(h) - 1; j > 0; {
		parent := (j - 1) / 2
		if !q.slab.less(h[j], h[parent]) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
}

// pop removes the event a successful peek returned. The record stays
// allocated: the caller reads its fields and releases it.
func (q *eventQueue) pop() evRef {
	old := q.heap
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	q.heap = old[:n]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		if l >= n {
			break
		}
		m := l
		if r < n && q.slab.less(old[r], old[l]) {
			m = r
		}
		if !q.slab.less(old[m], old[j]) {
			break
		}
		old[j], old[m] = old[m], old[j]
		j = m
	}
	return top
}
