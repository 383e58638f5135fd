package relay

import (
	"bytes"
	"testing"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Edge-case behaviour of the relay daemon: acknowledgment semantics, slot
// geometry confusion, and late traffic.

func TestEstablishmentAckOriginatesAtReceiverOnly(t *testing.T) {
	h := newHarness(t, 3, 2, 2, 101, true)
	defer h.close()
	h.establish(t)
	// Every relay between the receiver's stage and the source forwarded the
	// ack; nodes downstream of the receiver never saw one. We can't observe
	// packets directly, but we can assert the receiver acked exactly once by
	// sending a duplicate trigger: deliver a fake ack from a child and check
	// the dedup flag holds (no crash, no storm).
	destFlow := h.graph.Flows[h.graph.Dest]
	sh := h.dest.shardFor(destFlow)
	acked := func() (ok bool) {
		sh.do(func() {
			fs := sh.flows[destFlow]
			ok = fs != nil && fs.ackSent
		})
		return ok
	}
	if !simnet.Eventually(5*time.Second, 2*time.Millisecond, acked) {
		t.Fatal("receiver did not send establishment ack")
	}
}

func TestAckFromStrangerIgnored(t *testing.T) {
	h := newHarness(t, 2, 2, 2, 103, true)
	defer h.close()
	h.establish(t)
	relayID := h.graph.Stages[0][0]
	// A node that is not a child sends an ack; the relay must not ack flows
	// it does not relate to the sender.
	h.net.Attach(7777, func(wire.NodeID, []byte) {})
	ack := &wire.Packet{Type: wire.MsgAck, Flow: 1}
	h.net.Send(7777, relayID, ack.Marshal())
	time.Sleep(50 * time.Millisecond)
	// The flow still works.
	if err := h.sender.Send([]byte("still fine")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitMsg(t, 5*time.Second); !bytes.Equal(got, []byte("still fine")) {
		t.Fatal("mismatch")
	}
}

// Data packets whose slot fails the checksum are dropped without disturbing
// the round.
func TestCorruptDataSlotIgnored(t *testing.T) {
	h := newHarness(t, 2, 2, 2, 105, true)
	defer h.close()
	h.establish(t)
	relayID := h.graph.Stages[0][0]
	junk := &wire.Packet{
		Type: wire.MsgData, Flow: h.graph.Flows[relayID], Seq: 9999,
		CoeffLen: 2, SlotLen: 16, Slots: [][]byte{make([]byte, 16)},
	}
	h.net.Send(1000, relayID, junk.Marshal())
	time.Sleep(30 * time.Millisecond)
	if err := h.sender.Send([]byte("after junk")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitMsg(t, 5*time.Second); !bytes.Equal(got, []byte("after junk")) {
		t.Fatal("mismatch")
	}
	h.checkBooks(t)
}

// A data round that already forwarded ignores late duplicates without
// re-forwarding (no duplicate deliveries at the destination).
func TestNoDuplicateDeliveries(t *testing.T) {
	h := newHarness(t, 2, 2, 3, 107, true)
	defer h.close()
	h.establish(t)
	if err := h.sender.Send([]byte("once")); err != nil {
		t.Fatal(err)
	}
	h.waitMsg(t, 5*time.Second)
	select {
	case m := <-h.dest.Received():
		t.Fatalf("duplicate delivery: %q", m.Data)
	case <-time.After(150 * time.Millisecond):
	}
	if got := h.dest.Counters().Get("messages_delivered"); got != 1 {
		t.Fatalf("delivered %d messages, want 1", got)
	}
	h.checkBooks(t)
}

// Dead parents stop stalling rounds: after one timed-out round, later
// rounds forward as soon as the surviving parents are heard.
func TestDeadParentFastPath(t *testing.T) {
	h := newHarness(t, 3, 2, 3, 109, true)
	defer h.close()
	h.establish(t)
	// Kill one stage-1 relay (not the destination).
	var victim wire.NodeID
	for _, id := range h.graph.Stages[0] {
		if id != h.graph.Dest {
			victim = id
			break
		}
	}
	h.net.Fail(victim)
	// First message pays the RoundWait timeout; subsequent ones are fast.
	if err := h.sender.Send([]byte("warm-up")); err != nil {
		t.Fatal(err)
	}
	h.waitMsg(t, 10*time.Second)
	start := time.Now()
	if err := h.sender.Send([]byte("fast")); err != nil {
		t.Fatal(err)
	}
	h.waitMsg(t, 10*time.Second)
	// fastCfg RoundWait is 50ms; with the dead parent marked, delivery
	// should not wait out timeouts at every stage again.
	if el := time.Since(start); el > 400*time.Millisecond {
		t.Fatalf("dead-parent fast path not taken: %v", el)
	}
	h.checkBooks(t)
}

// Setup packets with a slot length that disagrees with the flow's geometry
// must not crash the relay when it forwards.
func TestInconsistentSetupGeometryIgnored(t *testing.T) {
	h := newHarness(t, 2, 2, 2, 111, true)
	defer h.close()
	relayID := h.graph.Stages[0][0]
	flow := h.graph.Flows[relayID]
	// A forged setup packet on the same flow with tiny slots, racing the
	// real establishment.
	forged := &wire.Packet{
		Type: wire.MsgSetup, Flow: flow, CoeffLen: 2, SlotLen: 8,
		Slots: [][]byte{make([]byte, 8), make([]byte, 8)},
	}
	h.net.Attach(8888, func(wire.NodeID, []byte) {})
	h.net.Send(8888, relayID, forged.Marshal())
	time.Sleep(20 * time.Millisecond)
	h.establish(t)
	if err := h.sender.Send([]byte("geometry safe")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitMsg(t, 5*time.Second); !bytes.Equal(got, []byte("geometry safe")) {
		t.Fatal("mismatch")
	}
}
