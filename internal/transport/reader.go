package transport

import (
	"encoding/binary"
	"math"
	"net"
	"sync"

	"infoslicing/internal/metrics"
	"infoslicing/internal/wire"
)

// Deliver consumes one received frame. The payload is a private view the
// receiver owns outright (buffer-ownership rule 2): the reader never
// touches those bytes again, so the handler may retain views into them
// across rounds, exactly as the relay's shard queues do. Returning false
// stops the connection's read loop.
type Deliver func(from wire.NodeID, payload []byte) bool

// Acceptor owns one listening socket: the accept loop, one read loop per
// inbound connection, and the bookkeeping that lets Close unblock every
// read loop. A connection that dies removes itself from the table — a
// transport accepting churning peers does not accrete dead entries.
type Acceptor struct {
	ln       net.Listener
	maxFrame int
	deliver  Deliver

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	ctr *metrics.ShardedCounter // the transport's block
	key uint64
}

// NewAcceptor wraps ln without accepting yet: the owner can finish its own
// registration (publish the endpoint, set fields the deliver callback's
// liveness check reads) and then Start. Separating the two closes the
// attach race where a peer's first frames arrive — and get dropped, conn
// and all — before the receiving node is registered. It counts into ctr.
func NewAcceptor(ln net.Listener, maxFrame int, deliver Deliver, ctr *metrics.ShardedCounter) *Acceptor {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	// Keep size arithmetic (uint32 compare, HeaderLen+size) overflow-free
	// on every platform.
	if maxFrame > math.MaxInt32-HeaderLen {
		maxFrame = math.MaxInt32 - HeaderLen
	}
	return &Acceptor{
		ln:       ln,
		maxFrame: maxFrame,
		deliver:  deliver,
		conns:    make(map[net.Conn]struct{}),
		ctr:      ctr,
		key:      stripeKeys.Add(1),
	}
}

// Start launches the accept loop. Call exactly once; Start after Close is
// safe (the loop exits on the closed listener's first Accept).
func (a *Acceptor) Start() {
	a.wg.Add(1)
	go a.acceptLoop()
}

// Addr returns the listen address.
func (a *Acceptor) Addr() string { return a.ln.Addr().String() }

// ConnCount reports how many accepted connections are currently alive.
func (a *Acceptor) ConnCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.conns)
}

// DropConns severs every accepted connection but keeps listening — fault
// injection for tests and operational "hang up on everyone" recovery. The
// read loops unregister themselves as they die.
func (a *Acceptor) DropConns() {
	a.mu.Lock()
	victims := make([]net.Conn, 0, len(a.conns))
	for c := range a.conns {
		victims = append(victims, c)
	}
	a.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// Close stops the listener, severs every accepted connection, and waits
// for the accept and read loops to exit.
func (a *Acceptor) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		a.wg.Wait()
		return
	}
	a.closed = true
	victims := make([]net.Conn, 0, len(a.conns))
	for c := range a.conns {
		victims = append(victims, c)
	}
	a.mu.Unlock()
	a.ln.Close()
	for _, c := range victims {
		c.Close()
	}
	a.wg.Wait()
}

func (a *Acceptor) acceptLoop() {
	defer a.wg.Done()
	for {
		c, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			c.Close()
			return
		}
		a.conns[c] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			a.readLoop(c)
			c.Close()
			a.mu.Lock()
			delete(a.conns, c)
			a.mu.Unlock()
		}()
	}
}

// readLoop reads frames into reusable slabs and hands each payload out as
// a view. The kernel writes straight into the slab; nothing is copied on
// the way to the handler. Delivered regions are never written again —
// handlers own them (rule 2) — so when a slab fills, the loop rolls to a
// fresh one, carrying over only the bytes of a partially-read frame.
func (a *Acceptor) readLoop(c net.Conn) {
	const slabMin = 64 << 10
	slab := make([]byte, slabMin)
	start, end := 0, 0
	var readErr error
	for {
		for end-start >= HeaderLen {
			size, from, ok := parseHeader(slab[start:end], a.maxFrame)
			if !ok {
				return // nonsense frame; drop the connection
			}
			total := HeaderLen + size
			if end-start < total {
				break
			}
			off := start + HeaderLen
			// Full slice expression: an appending handler must not be able
			// to grow into the next frame's bytes.
			payload := slab[off : off+size : off+size]
			start += total
			a.ctr.Add(a.key, cFramesIn, 1)
			a.ctr.Add(a.key, cBytesIn, int64(size))
			if !a.deliver(from, payload) {
				return
			}
		}
		if readErr != nil {
			return
		}
		if end == len(slab) {
			// Slab exhausted. Handed-out frames pin slab[:start], so roll
			// to a fresh slab, moving only the unparsed tail (at most one
			// partial frame). A header's size is only a claim: the new slab
			// grows toward it no faster than its bytes arrive — at most
			// double what is already in — so one peer claiming MaxFrame and
			// then stalling commits memory in proportion to what it sent.
			pending := end - start
			need := slabMin
			if pending >= HeaderLen {
				total := HeaderLen + int(binary.BigEndian.Uint32(slab[start:]))
				if t := pending + min(pending, total-pending); t > need {
					need = t
				}
			}
			ns := make([]byte, need)
			copy(ns, slab[start:end])
			slab, start, end = ns, 0, pending
		}
		n, err := c.Read(slab[end:])
		end += n
		if err != nil {
			readErr = err
		}
	}
}
