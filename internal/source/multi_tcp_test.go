package source

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Many concurrent flows from one process over the real wire path, every
// slice crossing loopback TCP through the peer layer. The flows share one
// TCP transport — and so one connection per remote relay — which is
// exactly the production "heavy client" deployment; the test pins that
// per-flow isolation and message integrity survive the move from in-memory
// channels to shared sockets. It runs on the loopback network, the same
// Static core, which binds each node's port once (a reserved book would
// free each port and bind it again, racing other tests for it).
func TestConcurrentFlowsOverStaticTCP(t *testing.T) {
	simnet.ReportSeed(t)
	const (
		flows = 3
		l, d  = 2, 2
		msgs  = 4
	)
	tr := overlay.NewTCPNetwork()
	defer tr.Close()
	seed := int64(7)

	var nodes []*relay.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	type flowRun struct {
		snd  *Sender
		dest *relay.Node
		g    *core.Graph
	}
	runs := make([]flowRun, 0, flows)
	nextID := wire.NodeID(1)
	for f := 0; f < flows; f++ {
		relays := make([]wire.NodeID, l*d)
		for i := range relays {
			relays[i] = nextID
			nextID++
		}
		srcs := make([]wire.NodeID, d)
		for i := range srcs {
			srcs[i] = wire.NodeID(9000 + f*16 + i)
		}
		eps, err := AttachEndpoints(tr, srcs)
		if err != nil {
			t.Fatal(err)
		}
		defer eps.Close()
		var dest *relay.Node
		for _, id := range relays {
			n, err := relay.New(id, tr, relay.Config{
				SetupWait: 50 * time.Millisecond,
				RoundWait: 50 * time.Millisecond,
				Rng:       rand.New(rand.NewSource(seed + int64(id))),
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		g, err := core.Build(core.Spec{
			L: l, D: d, DPrime: d,
			Relays: relays, Dest: relays[l*d-1], Sources: srcs,
			Recode: true, Scramble: true,
			Rng: rand.New(rand.NewSource(seed + 100 + int64(f))),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			if n.ID() == g.Dest {
				dest = n
			}
		}
		snd := New(tr, g, Config{}, rand.New(rand.NewSource(seed+200+int64(f))))
		if err := snd.EstablishAndWait(eps, 10*time.Second); err != nil {
			t.Fatalf("flow %d: %v", f, err)
		}
		runs = append(runs, flowRun{snd: snd, dest: dest, g: g})
	}

	// Establishment waves and acks crossed real sockets; now stream every
	// flow and check payload integrity.
	for f, run := range runs {
		want := make([][]byte, msgs)
		for m := 0; m < msgs; m++ {
			want[m] = bytes.Repeat([]byte{byte(f*16 + m + 1)}, 777)
			if err := run.snd.Send(want[m]); err != nil {
				t.Fatalf("flow %d msg %d: %v", f, m, err)
			}
		}
		for m := 0; m < msgs; m++ {
			select {
			case got := <-run.dest.Received():
				if got.Flow != run.g.Flows[run.g.Dest] {
					t.Fatalf("flow %d: delivery for unexpected flow id", f)
				}
				if !bytes.Equal(got.Data, want[m]) {
					t.Fatalf("flow %d msg %d corrupted over TCP: %d bytes vs %d",
						f, m, len(got.Data), len(want[m]))
				}
			case <-time.After(15 * time.Second):
				t.Fatalf("flow %d: message %d never delivered (sendDrops=%d)",
					f, m, run.snd.SendDrops())
			}
		}
	}
}
