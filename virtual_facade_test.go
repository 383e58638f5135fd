package infoslicing

import (
	"testing"
	"time"

	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
)

// The facade on virtual time: WithTransport(VirtualSpec) swaps the
// transport for a simnet universe and threads the clock through every relay
// and sender, so a full Dial → kill → splice → deliver cycle — the same
// shape as the wall-clock TestDialRepairSingleFailure — runs in
// milliseconds of real time, driven entirely by stepping the clock.
func TestVirtualTimeDialRepairSingleFailure(t *testing.T) {
	simnet.ReportSeed(t)
	vc := simnet.NewVirtualClock()
	nw := New(
		WithSeed(7),
		WithTransport(VirtualSpec{Clock: vc}),
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
	// The rest of the graph past the destination: wait until every relay
	// decoded (failures during setup are out of scope, §8).
	waitAllEstablished(t, nw, conn, 10*time.Second)

	// d'=d: zero redundancy — only repair can save the flow.
	var victim NodeID
	for st := 0; st < 2 && victim == 0; st++ {
		for _, id := range conn.graph.Stages[st] {
			if id != conn.Dest() {
				victim = id
				break
			}
		}
	}
	nw.Fail(victim)
	if !vc.AwaitCond(30*time.Second, func() bool { return conn.RepairStats().Splices >= 1 }) {
		t.Fatal("no splice after relay failure")
	}
	vc.RunFor(200 * time.Millisecond) // replacement establishes, patches land
	msg := []byte("post-repair, zero redundancy, virtual time")
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	var got []byte
	ok := vc.AwaitCond(10*time.Second, func() bool {
		select {
		case m := <-conn.Received():
			got = m
			return true
		default:
			return false
		}
	})
	if !ok {
		t.Fatal("message lost despite repair")
	}
	if string(got) != string(msg) {
		t.Fatal("message corrupted")
	}
	if s := conn.RepairStats(); s.Reports == 0 {
		t.Fatalf("stats incomplete: %+v", s)
	}
	checkBooks(t, nw)
}
