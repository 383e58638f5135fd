package relay

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// TestShardIsSingleWriter holds the ownership rule where the compiler cannot:
// the node, a shard and what they own carry no lock, and a flow carries neither
// a clock timer nor a closure — its waits are numbers in the shard's deadline
// queue.
func TestShardIsSingleWriter(t *testing.T) {
	var (
		mutex   = reflect.TypeOf(sync.Mutex{})
		rwMutex = reflect.TypeOf(sync.RWMutex{})
		timer   = reflect.TypeOf((*simnet.Timer)(nil)).Elem()
		pkg     = reflect.TypeOf(shard{}).PkgPath()
	)
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string, inFlow bool)
	walk = func(ty reflect.Type, path string, inFlow bool) {
		switch {
		case ty == mutex || ty == rwMutex:
			t.Errorf("%s is a %v: the shard's worker is its only writer", path, ty)
		case inFlow && (ty == timer || ty.Kind() == reflect.Func):
			t.Errorf("%s is a %v: a flow's waits live in the shard's deadline queue", path, ty)
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(ty.Elem(), path, inFlow)
		case reflect.Struct:
			// Other packages' types are checked as a whole, not taken apart.
			if ty.PkgPath() != pkg || seen[ty] {
				return
			}
			seen[ty] = true
			for i := range ty.NumField() {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name, inFlow)
			}
		}
	}
	walk(reflect.TypeOf(flowState{}), "flowState", true)
	if !seen[reflect.TypeOf(roundWindow{})] || !seen[reflect.TypeOf(roundSlot{})] || !seen[reflect.TypeOf(hop{})] {
		t.Fatal("the walk over flowState missed its round window or hop table")
	}
	walk(reflect.TypeOf(shard{}), "shard", false)
	walk(reflect.TypeOf(Node{}), "Node", false)
}

// TestMailboxSerializesWithBursts hammers one shard's mailbox from several
// goroutines while packets stream through its queue: every closure sees the
// shard between bursts (plain reads and writes of worker-owned state, so
// -race is the judge), and once the node is closed they still return.
func TestMailboxSerializesWithBursts(t *testing.T) {
	n, err := New(1, &countingTransport{}, Config{Shards: 1, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sh := n.shards[0]
	const flow = wire.FlowID(0xa11)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.onPacket(100, junkDataFrame(flow))
			}
		}
	}()
	calls := 0 // written only inside mailbox calls
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for i := 0; i < 500; i++ {
				sh.do(func() {
					calls++
					if in := sh.ctr[cDataIn]; in < last {
						t.Errorf("data_in went from %d to %d", last, in)
					} else {
						last = in
					}
					if fs := sh.flows[flow]; fs != nil && fs.tail != nil && len(fs.tail.stage.pending) > maxPendingData {
						t.Errorf("flow holds %d pending packets", len(fs.tail.stage.pending))
					}
				})
			}
		}()
	}
	simnet.Eventually(5*time.Second, time.Millisecond, func() bool { return n.Counters().Get("data_in") > 0 })
	close(stop)
	wg.Wait()
	n.Close()
	sh.do(func() { calls++ })
	if calls != 4*500+1 {
		t.Fatalf("%d mailbox calls ran, want %d", calls, 4*500+1)
	}
}

// TestDropCountersNameTheDiscard feeds a node one packet of each kind it
// throws away on arrival and holds it to naming the reason: exactly that
// counter moves, by one, and the books still balance.
func TestDropCountersNameTheDiscard(t *testing.T) {
	const (
		flow   = wire.FlowID(0xd0)
		parent = wire.NodeID(11)
		child  = wire.NodeID(21)
	)
	rng := rand.New(rand.NewSource(3))
	enc, err := code.NewEncoder(2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	slices, err := enc.Encode(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	established := &wire.PerNodeInfo{
		Children: []wire.NodeID{child}, ChildFlows: []wire.FlowID{0xc1}, Key: testKey(1),
		DataMap: []wire.DataForward{{Parent: parent, Child: 0}, {Parent: 12, Child: 0}},
	}
	establish := func(n *Node, _ *shard) { injectFlow(n, flow, established) }
	setupFrame := wire.AppendPacketHeader(nil, wire.MsgSetup, flow, 0, 2, 8, 1)
	setupFrame = append(setupFrame, make([]byte, 8)...) // one slot of padding: retained, never decodable
	typed := func(typ wire.MsgType, f wire.FlowID) []byte {
		return wire.AppendPacketHeader(nil, typ, f, 0, 0, 0, 0)
	}

	bucketMate := child + 1
	for dirBucket(bucketMate) != dirBucket(child) {
		bucketMate++
	}
	cases := []struct {
		name    string
		counter string
		prepare func(n *Node, sh *shard)
		from    wire.NodeID
		packet  []byte
	}{
		{name: "shorter than a header", counter: "runts", from: parent, packet: []byte("runt")},
		{name: "header claims more slots than came", counter: "garbage", from: parent,
			packet: wire.AppendPacketHeader(nil, wire.MsgData, flow, 0, 2, 100, 3)},
		{name: "unknown type for a resident flow", counter: "garbage", from: parent,
			prepare: establish, packet: typed(99, flow)},
		{name: "slice fails its checksum", counter: "bad_slots", from: parent, prepare: establish,
			packet: func() []byte {
				b := dataFrame(flow, 0, 2, slices[0])
				b[len(b)-1] ^= 1
				return b
			}()},
		{name: "a parent's second slice for a round", counter: "duplicate_slices", from: parent,
			prepare: func(n *Node, sh *shard) {
				establish(n, sh)
				n.process(sh, parent, dataFrame(flow, 0, 2, slices[0]))
			},
			packet: dataFrame(flow, 0, 2, slices[0])},
		{name: "slice for a node that neither forwards nor decodes", counter: "unwanted_slices", from: parent,
			prepare: func(n *Node, _ *shard) { injectFlow(n, flow, &wire.PerNodeInfo{Key: testKey(1)}) },
			packet:  dataFrame(flow, 0, 2, slices[0])},
		{name: "data past the pending bound", counter: "pending_dropped", from: parent,
			prepare: func(n *Node, sh *shard) {
				for range maxPendingData {
					n.process(sh, parent, junkDataFrame(flow))
				}
			},
			packet: junkDataFrame(flow)},
		{name: "duplicate set-up packet", counter: "setup_ignored", from: parent,
			prepare: func(n *Node, sh *shard) { n.process(sh, parent, setupFrame) },
			packet:  setupFrame},
		{name: "set-up after the wave left", counter: "setup_ignored", from: parent,
			prepare: establish, // installs an established flow
			packet:  setupFrame},
		{name: "set-up from a sender past the hop cap", counter: "setup_ignored", from: 5000,
			prepare: func(n *Node, sh *shard) {
				n.process(sh, parent, junkDataFrame(flow))
				sh.do(func() {
					fs := sh.flows[flow]
					for id := wire.NodeID(1000); len(fs.hops()) < maxObservedHops; id++ {
						fs.setHops(append(fs.hops(), hop{id: id}))
					}
				})
			},
			packet: setupFrame},
		{name: "ack from a child for no flow of its", counter: "unmatched", from: child,
			prepare: establish, packet: typed(wire.MsgAck, 0xc2)},
		{name: "splice that does not open", counter: "splices_refused", from: parent,
			prepare: establish, packet: wire.AppendSplice(nil, flow, make([]byte, 64))},
		{name: "heartbeat for an unknown flow", counter: "unmatched", from: parent,
			packet: wire.AppendHeartbeat(nil, flow)},
		{name: "ack from a sender no flow lists as a child", counter: "filter_misses", from: 77,
			prepare: establish, packet: typed(wire.MsgAck, 0xc1)},
		// The directory counts buckets of children, not children: a sender
		// sharing the listed child's bucket passes it and misses the index.
		{name: "ack from a sender sharing a listed child's directory bucket", counter: "unmatched", from: bucketMate,
			prepare: establish, packet: typed(wire.MsgAck, 0xc1)},
	}
	arrivals := map[string]bool{"setup_in": true, "data_in": true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := New(1, &countingTransport{}, Config{Shards: 1, Rng: rand.New(rand.NewSource(1))})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			sh := n.shards[0]
			if tc.prepare != nil {
				tc.prepare(n, sh)
			}
			before := n.Counters()
			n.onPacket(tc.from, tc.packet)
			// Once the worker has taken it off the queue, a mailbox call
			// returns only after its burst.
			simnet.Eventually(5*time.Second, time.Millisecond, func() bool { return len(sh.in) == 0 })
			sh.do(func() {})
			n.Counters().Sub(before).Each(func(name string, moved int64) {
				want := int64(0)
				if name == tc.counter {
					want = 1
				}
				if moved != want && !arrivals[name] {
					t.Errorf("%s moved by %d, want %d", name, moved, want)
				}
			})
			checkBooks(t, n)
		})
	}
}
