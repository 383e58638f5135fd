// Package transport is the production peer layer under the real-network
// overlay transports: per-peer connection lifecycle and batched TCP I/O for
// the relay daemon deployment of §7.1 (one daemon per host, one TCP stream
// per directed peer pair).
//
// The package exists because the data path above it is non-blocking by
// contract: a relay shard worker or a source's round loop hands a frame to
// a peer and moves on, whatever the state of the peer's TCP connection. To
// make that true, every peer owns
//
//   - a bounded outbound frame queue, filled by any goroutine via
//     Peer.Enqueue (never blocks; a full queue drops the frame and counts
//     it),
//   - a dedicated writer goroutine that drains the queue, coalescing many
//     frames into one writev (net.Buffers) per syscall, and
//   - the connection lifecycle: the dial happens lazily on the writer (off
//     the data path), a broken connection is re-dialed with jittered
//     exponential backoff, and Close drains what is queued before hanging
//     up.
//
// The receive side (Acceptor) reads length-prefixed frames into reusable
// slabs and hands each frame out as a view — zero copies between the
// kernel and the relay's shard queues.
//
// Wire format, byte-compatible with the pre-peer transports: 4-byte
// big-endian payload length, 4-byte big-endian sender NodeID, payload.
package transport

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/wire"
)

// HeaderLen is the frame header size: 4-byte length, 4-byte sender id.
const HeaderLen = 8

// DefaultMaxFrame bounds a frame's payload; a peer claiming more is talking
// a different protocol and its connection is dropped.
const DefaultMaxFrame = 64 << 20

// ErrQueueFull reports that a frame was dropped at a peer's full outbound
// queue. It is advisory — the transports have datagram semantics and the
// caller's round keeps going — but callers on the data path count it (the
// relay's send_drops) so operators can see a slow peer shedding load.
var ErrQueueFull = errors.New("transport: peer queue full")

// dialTimeout bounds one connection attempt.
const dialTimeout = 2 * time.Second

// Config tunes peer behaviour. The zero value is usable; zero fields take
// the defaults noted per field.
type Config struct {
	// QueueDepth bounds each peer's outbound frame queue (default 512).
	// Enqueue on a full queue drops the frame: bounded memory per peer and
	// a never-blocking data path, at datagram semantics.
	QueueDepth int
	// MaxBatch caps how many queued frames one writev coalesces
	// (default 64).
	MaxBatch int
	// BackoffMin/BackoffMax bound the jittered exponential backoff between
	// failed dials (defaults 20ms / 2s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// WriteTimeout bounds one flush; a stalled receiver (TCP backpressure)
	// fails the flush, drops its frames, and severs the connection instead
	// of wedging the writer goroutine forever (default 10s).
	WriteTimeout time.Duration
	// DrainTimeout bounds how long a graceful Close keeps flushing queued
	// frames before hanging up (default 1s).
	DrainTimeout time.Duration
	// MaxFrame bounds payload size on both sides (default DefaultMaxFrame).
	MaxFrame int
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 512
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 20 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
}

// A transport's counters. Its peers and acceptors come and go, so they all
// record, each on its own stripe key, into one block (NewCounters) that the
// transport owns. enqueued − dropped − frames_out frames are still queued;
// sources_added − sources_evicted source sockets hold ack state.
const (
	cEnqueued       = iota // frames accepted into a peer queue
	cDropped               // frames lost: full queue, failed flush, or drain cutoff
	cSendFailures          // write errors (each severs the connection)
	cFlushes               // writev or sendmmsg calls that wrote
	cFramesOut             // frames written
	cBytesOut              // bytes written
	cDials                 // successful connects
	cReconnects            // successful connects after a peer's first
	cDatagramsOut          // data datagrams written
	cDatagramsLost         // datagrams the ack channel proved (or RTO presumed) lost
	cAcksIn                // transport acks processed by datagram peers
	cFramesIn              // frames delivered by acceptors
	cBytesIn               // payload bytes behind frames_in
	cDatagramsIn           // data datagrams accepted
	cAcksOut               // transport acks echoed by datagram acceptors
	cRxDropped             // inbound datagrams the RxDrop shim ate
	cSourcesAdded          // datagram source sockets given ack state
	cSourcesEvicted        // idle sources whose ack state was dropped
	cAcksFuture            // acks ignored for covering seqs never sent
)

var vocab = metrics.NewVocab([]string{
	cEnqueued: "enqueued", cDropped: "dropped", cSendFailures: "send_failures",
	cFlushes: "flushes", cFramesOut: "frames_out", cBytesOut: "bytes_out",
	cDials: "dials", cReconnects: "reconnects", cDatagramsOut: "datagrams_out",
	cDatagramsLost: "datagrams_lost", cAcksIn: "acks_in", cFramesIn: "frames_in",
	cBytesIn: "bytes_in", cDatagramsIn: "datagrams_in", cAcksOut: "acks_out",
	cRxDropped: "rx_dropped", cSourcesAdded: "sources_added", cSourcesEvicted: "sources_evicted",
	cAcksFuture: "acks_future",
}...)

// NewCounters returns a transport's counter block. Its peers and acceptors
// take stripes in turn (stripeKeys), so the first 64 share none.
func NewCounters() *metrics.ShardedCounter { return metrics.NewShardedCounter(64, vocab) }

var stripeKeys atomic.Uint64

// Stats is the benchmark's view of a transport's counters (Static.PeerStats).
type Stats struct {
	Enqueued, Dropped, SendFailures, Flushes, FramesOut, Reconnects int64
}

// putHeader writes the frame header for a payload of n bytes from the given
// sender into hdr.
func putHeader(hdr []byte, from wire.NodeID, n int) {
	binary.BigEndian.PutUint32(hdr, uint32(n))
	binary.BigEndian.PutUint32(hdr[4:], uint32(from))
}

// parseHeader reads the frame header at the front of b (at least HeaderLen
// bytes) for both network-facing splitters. The claimed length is bounded
// in uint32 space: converted to int first, a hostile length ≥ 2^31 wraps
// negative on a 32-bit platform and dodges every later guard. Both
// acceptors clamp maxFrame to at most MaxInt32−HeaderLen, so HeaderLen+size
// cannot overflow either. ok=false means the peer is talking a different
// protocol.
func parseHeader(b []byte, maxFrame int) (size int, from wire.NodeID, ok bool) {
	size32 := binary.BigEndian.Uint32(b)
	if size32 > uint32(maxFrame) {
		return 0, 0, false
	}
	return int(size32), wire.NodeID(binary.BigEndian.Uint32(b[4:])), true
}
