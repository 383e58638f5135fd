package eval

import (
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/simnet"
)

// checkBooks holds every relay of the testbed to its conservation laws
// (relay.Node.Books).
func checkBooks(t *testing.T, tb *testbed) {
	t.Helper()
	for _, n := range tb.relays {
		if err := n.Books(); err != nil {
			t.Error(err)
		}
	}
}

// startScenario hosts the scripted-scenario stack on a fresh testbed,
// lets shape act on it, starts the flow and waits for it to establish.
func startScenario(t *testing.T, seed int64, dPrime int, repair bool, shape func(*testbed, *flow)) (*testbed, *flow) {
	t.Helper()
	tb := newTestbed(seed, simLink)
	t.Cleanup(tb.close)
	fl, err := tb.scenario(seed, dPrime, repair)
	if err != nil {
		t.Fatal(err)
	}
	if shape != nil {
		shape(tb, fl)
	}
	if err := fl.start(); err != nil {
		t.Fatal(err)
	}
	if !tb.established(10 * time.Second) {
		t.Fatal("never established")
	}
	return tb, fl
}

// sendOne streams one 256-byte message drawn from rng and waits for every
// message sent so far to be delivered.
func sendOne(t *testing.T, tb *testbed, fl *flow, rng *rand.Rand) {
	t.Helper()
	msg := make([]byte, 256)
	rng.Read(msg)
	if err := fl.send(msg); err != nil {
		t.Fatal(err)
	}
	if !tb.Await(10*time.Second, tb.caughtUp) {
		t.Fatalf("stream dead: %d/%d delivered", fl.delivered, fl.sent)
	}
}

// closeAndCheckBooks checks every relay's books, then again after closing.
func closeAndCheckBooks(t *testing.T, tb *testbed) {
	t.Helper()
	checkBooks(t, tb)
	tb.close()
	checkBooks(t, tb)
}

// The scenario matrix the wall clock could not host: exact-instant fault
// composition on the scripted virtual universe. Each test runs in
// milliseconds of real time and is replayable from its seed.

// TestCanonicalScenarioRepairCarriesSession: the reference scripted
// scenario. Two same-stage kills exceed the d'-d=1 redundancy budget; the
// repair arm must deliver everything, the detection-only arm must not.
func TestCanonicalScenarioRepairCarriesSession(t *testing.T) {
	simnet.ReportSeed(t)
	on, err := RunCanonicalScenario(7, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("repair on: %d/%d delivered, %d splices, %d reports, %v virtual",
		on.Delivered, on.Sent, on.Splices, on.Reports, on.VirtualElapsed)
	if on.Sent == 0 || on.Delivered < on.Sent {
		t.Fatalf("repair arm dropped messages: %d/%d", on.Delivered, on.Sent)
	}
	if on.Splices < 2 {
		t.Fatalf("repair arm spliced %d times, want >= 2", on.Splices)
	}
	off, err := RunCanonicalScenario(7, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("repair off: %d/%d delivered, %d reports", off.Delivered, off.Sent, off.Reports)
	if off.Splices != 0 {
		t.Fatalf("detection-only arm spliced %d times", off.Splices)
	}
	if off.Reports == 0 {
		t.Fatal("detection-only arm never consumed a report")
	}
	if off.Delivered >= on.Delivered {
		t.Fatalf("repair (%d) did not beat redundancy-only (%d)", on.Delivered, off.Delivered)
	}
}

// TestSpliceRacesSecondKill: the second same-stage relay dies at the very
// virtual instant the first kill's repair is being answered — the splice
// wave and the new failure race. The control plane must absorb both: two
// splices, stream decodable afterward.
func TestSpliceRacesSecondKill(t *testing.T) {
	simnet.ReportSeed(t)
	tb, fl := startScenario(t, 11, 3, true, nil)
	victims := fl.victims(2)
	if victims == nil {
		t.Fatal("no same-stage victims")
	}
	rng := rand.New(rand.NewSource(11))
	sendOne(t, tb, fl, rng)

	tb.Net.Fail(victims[0])
	// Step to the exact instant the source has consumed the first report —
	// the splice wave toward the replacement is in flight *now* — and kill
	// the second victim at that same virtual time.
	if !tb.Await(5*time.Second, func() bool { return fl.snd.Counters().Get("repair_reports") >= 1 }) {
		t.Fatal("first failure never reported")
	}
	tb.Net.Fail(victims[1])

	if !tb.Await(10*time.Second, func() bool { return fl.snd.Counters().Get("repair_splices") >= 2 }) {
		t.Fatalf("splice racing a second kill did not converge: %v", fl.snd.Counters())
	}
	tb.Run(tb.Elapsed() + 200*time.Millisecond) // replacements establish
	sendOne(t, tb, fl, rng)
	closeAndCheckBooks(t, tb)
}

// TestPartitionHealsMidRepair: the source endpoints are partitioned from
// the overlay in the detection window of a kill — reports cannot reach the
// source, splices could not reach the relays. Nothing must repair while the
// partition holds; when it heals, the relays' periodic re-reports must
// carry the repair to completion without any caller-side retry.
func TestPartitionHealsMidRepair(t *testing.T) {
	simnet.ReportSeed(t)
	tb, fl := startScenario(t, 13, 3, true, nil)
	victims := fl.victims(1)
	if victims == nil {
		t.Fatal("no victim")
	}

	// Partition first, then kill inside the partition window.
	srcs, all := fl.g.Sources, fl.g.Relays
	tb.Net.Partition(srcs, all)
	tb.Net.Fail(victims[0])
	tb.Run(tb.Elapsed() + 500*time.Millisecond)
	if got := fl.snd.Counters().Get("repair_splices"); got != 0 {
		t.Fatalf("spliced %d times across a partition", got)
	}

	tb.Net.HealPartition(srcs, all)
	if !tb.Await(10*time.Second, func() bool { return fl.snd.Counters().Get("repair_splices") >= 1 }) {
		t.Fatalf("repair never completed after heal: %v", fl.snd.Counters())
	}
	tb.Run(tb.Elapsed() + 200*time.Millisecond)
	sendOne(t, tb, fl, rand.New(rand.NewSource(13)))
	closeAndCheckBooks(t, tb)
}

// TestLossyLinksStillEstablish: per-link loss and duplication on every
// source→stage-1 link — the setup retransmission path (EstablishAndWait's
// job on the wall clock) is exercised here by the relays' own redundancy:
// with d'>d the wave tolerates the faults outright.
func TestLossyLinksStillEstablish(t *testing.T) {
	simnet.ReportSeed(t)
	// Degrade every endpoint→stage-1 link: 20% loss, 10% duplication,
	// occasional 5ms reorder stalls.
	lossy := simnet.LinkProfile{
		Delay: 500 * time.Microsecond, Loss: 0.2, Duplicate: 0.1,
		Reorder: 0.2, ReorderDelay: 5 * time.Millisecond,
	}
	tb, fl := startScenario(t, 17, 4, false, func(tb *testbed, fl *flow) {
		for _, src := range fl.g.Sources {
			for _, v := range fl.g.Stage1() {
				tb.Net.SetLink(src, v, lossy)
			}
		}
	})
	sendOne(t, tb, fl, rand.New(rand.NewSource(17)))
	closeAndCheckBooks(t, tb)
}
