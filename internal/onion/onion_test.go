package onion

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/wire"
)

type env struct {
	net   *overlay.ChanNetwork
	dir   *Directory
	nodes map[wire.NodeID]*Node
	snd   *Sender
}

// testRand is a deterministic io.Reader for key material in tests.
type testRand struct{ r *rand.Rand }

func (t testRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(t.r.Intn(256))
	}
	return len(p), nil
}

func newEnv(t *testing.T, nNodes int, seed int64) *env {
	t.Helper()
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(seed)))
	dir := NewDirectory()
	kr := testRand{rand.New(rand.NewSource(seed + 1))}
	ids := make([]wire.NodeID, nNodes)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	if err := dir.Generate(kr, 1024, ids...); err != nil {
		t.Fatal(err)
	}
	nodes := make(map[wire.NodeID]*Node)
	for _, id := range ids {
		n, err := NewNode(id, dir, net)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	const senderID = 999
	if err := net.Attach(senderID, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	snd := NewSender(senderID, net, dir, rand.New(rand.NewSource(seed+2)), kr)
	return &env{net: net, dir: dir, nodes: nodes, snd: snd}
}

func (e *env) close() {
	for _, n := range e.nodes {
		n.Close()
	}
	e.net.Close()
}

func waitMsg(t *testing.T, n *Node, timeout time.Duration) []byte {
	t.Helper()
	select {
	case m := <-n.Received():
		return m.Data
	case <-time.After(timeout):
		t.Fatal("onion delivery timed out")
		return nil
	}
}

func waitEstablished(t *testing.T, e *env, path []wire.NodeID, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		// The last relay establishes last.
		last := e.nodes[path[len(path)-1]]
		last.mu.Lock()
		n := len(last.circuits)
		last.mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("circuit did not establish")
}

func TestSingleCircuitDelivery(t *testing.T) {
	e := newEnv(t, 5, 1)
	defer e.close()
	path := []wire.NodeID{1, 2, 3, 4, 5}
	c, err := e.snd.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, e, path, 5*time.Second)
	msg := []byte("onion routed message")
	if err := e.snd.Send(c, 77, msg); err != nil {
		t.Fatal(err)
	}
	got := waitMsg(t, e.nodes[5], 5*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestIntermediateNodesSeeNoPlaintext(t *testing.T) {
	e := newEnv(t, 3, 2)
	defer e.close()
	path := []wire.NodeID{1, 2, 3}
	c, err := e.snd.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, e, path, 5*time.Second)
	if err := e.snd.Send(c, 1, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, e.nodes[3], 5*time.Second)
	// Relays 1 and 2 forwarded but delivered nothing.
	for _, id := range []wire.NodeID{1, 2} {
		st := e.nodes[id].Counters()
		if st.Get("delivered") != 0 {
			t.Fatalf("relay %d delivered", id)
		}
		if st.Get("forwarded") == 0 {
			t.Fatalf("relay %d forwarded nothing", id)
		}
	}
}

func TestMultiCellLargeMessage(t *testing.T) {
	e := newEnv(t, 3, 3)
	defer e.close()
	e.snd.CellPayload = 256
	path := []wire.NodeID{1, 2, 3}
	c, err := e.snd.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, e, path, 5*time.Second)
	msg := make([]byte, 5000)
	rand.New(rand.NewSource(3)).Read(msg)
	if err := e.snd.Send(c, 9, msg); err != nil {
		t.Fatal(err)
	}
	got := waitMsg(t, e.nodes[3], 5*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("large message corrupted")
	}
}

func TestErasureCodedMultiCircuit(t *testing.T) {
	e := newEnv(t, 7, 4)
	defer e.close()
	// Three circuits, all ending at node 7; d=2.
	paths := [][]wire.NodeID{
		{1, 2, 7}, {3, 4, 7}, {5, 6, 7},
	}
	mc, err := e.snd.BuildMultiCircuit(paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		waitEstablished(t, e, p, 5*time.Second)
	}
	msg := []byte("erasure coded over three disjoint circuits")
	if err := e.snd.SendErasure(mc, 42, msg); err != nil {
		t.Fatal(err)
	}
	got := waitMsg(t, e.nodes[7], 5*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("mismatch")
	}
}

func TestErasureSurvivesOneCircuitFailure(t *testing.T) {
	e := newEnv(t, 7, 5)
	defer e.close()
	paths := [][]wire.NodeID{
		{1, 2, 7}, {3, 4, 7}, {5, 6, 7},
	}
	mc, err := e.snd.BuildMultiCircuit(paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		waitEstablished(t, e, p, 5*time.Second)
	}
	e.net.Fail(4) // kill circuit 2 mid-path
	msg := []byte("two of three circuits suffice")
	if err := e.snd.SendErasure(mc, 43, msg); err != nil {
		t.Fatal(err)
	}
	got := waitMsg(t, e.nodes[7], 5*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("mismatch")
	}
}

func TestErasureDiesWithTooManyFailures(t *testing.T) {
	e := newEnv(t, 7, 6)
	defer e.close()
	paths := [][]wire.NodeID{
		{1, 2, 7}, {3, 4, 7}, {5, 6, 7},
	}
	mc, err := e.snd.BuildMultiCircuit(paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		waitEstablished(t, e, p, 5*time.Second)
	}
	e.net.Fail(2)
	e.net.Fail(4) // two dead circuits: only one survives < d=2
	if err := e.snd.SendErasure(mc, 44, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-e.nodes[7].Received():
		t.Fatal("message delivered despite d-1 surviving circuits")
	case <-time.After(300 * time.Millisecond):
	}
}

func TestUnknownIdentityRejected(t *testing.T) {
	e := newEnv(t, 2, 7)
	defer e.close()
	if _, err := e.snd.BuildCircuit([]wire.NodeID{1, 99}); err == nil {
		t.Fatal("unknown relay accepted")
	}
	if _, err := e.snd.BuildCircuit(nil); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestNodeRequiresIdentity(t *testing.T) {
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(8)))
	defer net.Close()
	if _, err := NewNode(5, NewDirectory(), net); err == nil {
		t.Fatal("node without identity accepted")
	}
}

func TestGarbageCellsIgnored(t *testing.T) {
	e := newEnv(t, 2, 9)
	defer e.close()
	e.net.Attach(500, func(wire.NodeID, []byte) {})
	e.net.Send(500, 1, []byte{1, 2})                           // too short
	e.net.Send(500, 1, make([]byte, 50))                       // bogus setup
	e.net.Send(500, 1, append([]byte{2}, make([]byte, 20)...)) // data for unknown circuit
	time.Sleep(50 * time.Millisecond)
	// Node still works.
	path := []wire.NodeID{1, 2}
	c, err := e.snd.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, e, path, 5*time.Second)
	if err := e.snd.Send(c, 3, []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if got := waitMsg(t, e.nodes[2], 5*time.Second); !bytes.Equal(got, []byte("fine")) {
		t.Fatal("mismatch")
	}
}

func TestBuildMultiCircuitValidation(t *testing.T) {
	e := newEnv(t, 3, 10)
	defer e.close()
	if _, err := e.snd.BuildMultiCircuit([][]wire.NodeID{{1, 3}}, 2); err == nil {
		t.Fatal("fewer paths than d accepted")
	}
}
