package infoslicing

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/relay"
	"infoslicing/internal/wire"
)

// The acceptance stress for the live churn control plane, meant to run
// under -race: N flows share one failure-injected overlay and every flow
// loses two same-stage relays mid-stream — one more than the d'-d=1
// redundancy budget covers. With repair on, at least 90% of all messages
// must still decode end-to-end and every Conn must report its splices; the
// identical schedule with repair off must measurably degrade. That gap is
// the point: the repair path, not just redundancy, carries the sessions.

type repairScenarioResult struct {
	delivered, sent int
	splices         int64
}

// waitAllEstablished blocks until every relay of the flow's graph has
// decoded its routing block. Dial only waits for the destination; failures
// injected before the rest of the graph settles are churn *during setup*,
// which the paper excludes (§8) and which no data-phase repair can undo at
// d'=d — the experiments fail relays mid-transfer, so the tests do too.
func waitAllEstablished(t *testing.T, nw *Network, c *Conn, timeout time.Duration) {
	t.Helper()
	nodes, flows := make([]*relay.Node, len(c.graph.Relays)), make([]wire.FlowID, len(c.graph.Relays))
	nw.mu.Lock()
	for i, id := range c.graph.Relays {
		nodes[i], flows[i] = nw.nodes[id], c.graph.Flows[id]
	}
	nw.mu.Unlock()
	if !relay.AwaitEstablished(nw.cfg.clock(), timeout, nodes, flows) {
		t.Fatal("the graph never established")
	}
}

func runRepairScenario(t *testing.T, repair bool) repairScenarioResult {
	t.Helper()
	const (
		flows     = 4
		pool      = 40
		perPhase  = 2 // messages per flow per phase; 3 phases
		l, d, dp  = 3, 2, 3
		recvTimeo = 5 * time.Second
	)
	nw := New(
		WithSeed(424242),
		WithRelayConfig(relay.Config{
			SetupWait: 100 * time.Millisecond,
			RoundWait: 80 * time.Millisecond,
			Heartbeat: 20 * time.Millisecond,
		}),
	)
	defer nw.Close()
	if _, err := nw.Grow(pool); err != nil {
		t.Fatal(err)
	}
	conns := make([]*Conn, flows)
	for i := range conns {
		c, err := nw.Dial(DialSpec{L: l, D: d, DPrime: dp, Repair: repair})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	for _, c := range conns {
		waitAllEstablished(t, nw, c, 10*time.Second)
	}

	// Two same-stage victims per flow, globally distinct, never a
	// destination of any flow, chosen before any failure can mutate a
	// graph.
	dests := make(map[NodeID]bool)
	for _, c := range conns {
		dests[c.Dest()] = true
	}
	used := make(map[NodeID]bool)
	victims := make([][2]NodeID, flows)
	for i, c := range conns {
		found := false
		for st := 0; st < l && !found; st++ {
			var cand []NodeID
			for _, id := range c.graph.Stages[st] {
				if !dests[id] && !used[id] {
					cand = append(cand, id)
				}
			}
			if len(cand) >= 2 {
				victims[i] = [2]NodeID{cand[0], cand[1]}
				used[cand[0]], used[cand[1]] = true, true
				found = true
			}
		}
		if !found {
			t.Fatalf("flow %d: no stage with two fresh victims", i)
		}
	}

	res := repairScenarioResult{}
	var mu sync.Mutex
	phase := func(name string) {
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *Conn) {
				defer wg.Done()
				for m := 0; m < perPhase; m++ {
					msg := []byte(fmt.Sprintf("%s/flow%d/msg%d", name, i, m))
					if err := c.Send(msg); err != nil {
						continue
					}
					mu.Lock()
					res.sent++
					mu.Unlock()
					select {
					case <-c.Received():
						mu.Lock()
						res.delivered++
						mu.Unlock()
					case <-time.After(recvTimeo):
					}
				}
			}(i, c)
		}
		wg.Wait()
	}
	fail := func(k int) {
		for i := range conns {
			nw.Fail(victims[i][k])
		}
		if repair {
			// Each flow must splice at least once per victim it lost so
			// far; overlapping graphs may splice more.
			deadline := time.Now().Add(30 * time.Second)
			for _, c := range conns {
				for c.RepairStats().Splices < int64(k+1) && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
			}
			time.Sleep(300 * time.Millisecond) // replacements establish, patches land
		} else {
			time.Sleep(500 * time.Millisecond)
		}
	}

	phase("intact")
	fail(0)
	phase("one-down")
	fail(1)
	phase("two-down")

	for _, c := range conns {
		res.splices += c.RepairStats().Splices
	}
	return res
}

func TestRepairStressEveryFlowLosesRelays(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second overlay stress")
	}
	on := runRepairScenario(t, true)
	t.Logf("repair on:  %d/%d delivered, %d splices", on.delivered, on.sent, on.splices)
	if on.sent == 0 {
		t.Fatal("nothing sent")
	}
	rate := float64(on.delivered) / float64(on.sent)
	if rate < 0.9 {
		t.Fatalf("repair-on delivery %.2f, want >= 0.90", rate)
	}
	if on.splices < 8 { // 4 flows × ≥2 victims each
		t.Fatalf("only %d splices reported across conns, want >= 8", on.splices)
	}

	off := runRepairScenario(t, false)
	t.Logf("repair off: %d/%d delivered, %d splices", off.delivered, off.sent, off.splices)
	offRate := float64(off.delivered) / float64(off.sent)
	if off.splices != 0 {
		t.Fatalf("repair-off arm spliced %d times", off.splices)
	}
	if offRate >= rate || offRate > 0.8 {
		t.Fatalf("repair-off delivery %.2f does not demonstrate degradation (repair-on %.2f)",
			offRate, rate)
	}
}

// TestDialRepairSingleFailure is the smoke-sized facade check: one flow,
// one failure past establishment, message still delivered, stats exposed.
func TestDialRepairSingleFailure(t *testing.T) {
	nw := New(
		WithSeed(7),
		WithRelayConfig(relay.Config{
			SetupWait: 100 * time.Millisecond,
			RoundWait: 80 * time.Millisecond,
			Heartbeat: 20 * time.Millisecond,
		}),
	)
	defer nw.Close()
	if _, err := nw.Grow(16); err != nil {
		t.Fatal(err)
	}
	conn, err := nw.Dial(DialSpec{L: 2, D: 2, DPrime: 2, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitAllEstablished(t, nw, conn, 10*time.Second)

	// d'=d: zero redundancy — only repair can save the flow.
	var victim wire.NodeID
	for st := 0; st < 2 && victim == 0; st++ {
		for _, id := range conn.graph.Stages[st] {
			if id != conn.Dest() {
				victim = id
				break
			}
		}
	}
	nw.Fail(victim)
	deadline := time.Now().Add(30 * time.Second)
	for conn.RepairStats().Splices == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if conn.RepairStats().Splices == 0 {
		t.Fatal("no splice after relay failure")
	}
	time.Sleep(200 * time.Millisecond)
	msg := []byte("post-repair, zero redundancy")
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-conn.Received():
		if string(got) != string(msg) {
			t.Fatal("message corrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("message lost despite repair")
	}
	if s := conn.RepairStats(); s.Reports == 0 {
		t.Fatalf("stats incomplete: %+v", s)
	}
	checkBooks(t, nw)
}
