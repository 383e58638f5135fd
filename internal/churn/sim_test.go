package churn

import (
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/simnet"
)

// checkBooks holds every relay of the scenario to its conservation laws
// (relay.Node.Books).
func checkBooks(t *testing.T, sc *SimScenario) {
	t.Helper()
	for _, n := range sc.Nodes {
		if err := n.Books(); err != nil {
			t.Error(err)
		}
	}
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
	sc, err := NewSimScenario(SimScenarioSpec{Seed: 11, L: 3, D: 2, DPrime: 3, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Start(); err != nil {
		t.Fatal(err)
	}
	if !sc.AwaitEstablished(5 * time.Second) {
		t.Fatal("never established")
	}
	victims := sc.Victims(2)
	if victims == nil {
		t.Fatal("no same-stage victims")
	}
	rng := rand.New(rand.NewSource(11))
	if err := sc.Send(rng, 256); err != nil {
		t.Fatal(err)
	}
	if !sc.S.Await(5*time.Second, func() bool { d, s := sc.Counts(); return d >= s }) {
		t.Fatal("pre-kill message lost")
	}

	sc.S.Net.Fail(victims[0])
	// Step to the exact instant the source has consumed the first report —
	// the splice wave toward the replacement is in flight *now* — and kill
	// the second victim at that same virtual time.
	if !sc.S.Await(5*time.Second, func() bool { return sc.Snd.Counters().Get("repair_reports") >= 1 }) {
		t.Fatal("first failure never reported")
	}
	sc.S.Net.Fail(victims[1])

	if !sc.S.Await(10*time.Second, func() bool { return sc.Snd.Counters().Get("repair_splices") >= 2 }) {
		t.Fatalf("splice racing a second kill did not converge: %v", sc.Snd.Counters())
	}
	sc.S.Run(sc.S.Elapsed() + 200*time.Millisecond) // replacements establish
	if err := sc.Send(rng, 256); err != nil {
		t.Fatal(err)
	}
	if !sc.S.Await(10*time.Second, func() bool { d, s := sc.Counts(); return d >= s }) {
		d, s := sc.Counts()
		t.Fatalf("stream dead after racing kills: %d/%d", d, s)
	}
	checkBooks(t, sc)
	sc.Close()
	checkBooks(t, sc)
}

// TestPartitionHealsMidRepair: the source endpoints are partitioned from
// the overlay in the detection window of a kill — reports cannot reach the
// source, splices could not reach the relays. Nothing must repair while the
// partition holds; when it heals, the relays' periodic re-reports must
// carry the repair to completion without any caller-side retry.
func TestPartitionHealsMidRepair(t *testing.T) {
	simnet.ReportSeed(t)
	sc, err := NewSimScenario(SimScenarioSpec{Seed: 13, L: 3, D: 2, DPrime: 3, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Start(); err != nil {
		t.Fatal(err)
	}
	if !sc.AwaitEstablished(5 * time.Second) {
		t.Fatal("never established")
	}
	victims := sc.Victims(1)
	if victims == nil {
		t.Fatal("no victim")
	}

	// Partition first, then kill inside the partition window.
	all := sc.G.Relays
	sc.S.Net.Partition(sc.SrcIDs, all)
	sc.S.Net.Fail(victims[0])
	sc.S.Run(sc.S.Elapsed() + 500*time.Millisecond)
	if got := sc.Snd.Counters().Get("repair_splices"); got != 0 {
		t.Fatalf("spliced %d times across a partition", got)
	}

	sc.S.Net.HealPartition(sc.SrcIDs, all)
	if !sc.S.Await(10*time.Second, func() bool { return sc.Snd.Counters().Get("repair_splices") >= 1 }) {
		t.Fatalf("repair never completed after heal: %v", sc.Snd.Counters())
	}
	sc.S.Run(sc.S.Elapsed() + 200*time.Millisecond)
	rng := rand.New(rand.NewSource(13))
	if err := sc.Send(rng, 256); err != nil {
		t.Fatal(err)
	}
	if !sc.S.Await(10*time.Second, func() bool { d, s := sc.Counts(); return d >= s }) {
		d, s := sc.Counts()
		t.Fatalf("stream dead after healed repair: %d/%d", d, s)
	}
	checkBooks(t, sc)
	sc.Close()
	checkBooks(t, sc)
}

// TestLossyLinksStillEstablish: per-link loss and duplication on every
// source→stage-1 link — the setup retransmission path (EstablishAndWait's
// job on the wall clock) is exercised here by the relays' own redundancy:
// with d'>d the wave tolerates the faults outright.
func TestLossyLinksStillEstablish(t *testing.T) {
	simnet.ReportSeed(t)
	sc, err := NewSimScenario(SimScenarioSpec{Seed: 17, L: 3, D: 2, DPrime: 4, Repair: false})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	// Degrade every endpoint→stage-1 link: 20% loss, 10% duplication,
	// occasional 5ms reorder stalls.
	lossy := simnet.LinkProfile{
		Delay: 500 * time.Microsecond, Loss: 0.2, Duplicate: 0.1,
		Reorder: 0.2, ReorderDelay: 5 * time.Millisecond,
	}
	for _, src := range sc.SrcIDs {
		for _, v := range sc.G.Stage1() {
			sc.S.Net.SetLink(src, v, lossy)
		}
	}
	if err := sc.Start(); err != nil {
		t.Fatal(err)
	}
	if !sc.AwaitEstablished(10 * time.Second) {
		t.Fatal("lossy links defeated establishment despite redundancy")
	}
	rng := rand.New(rand.NewSource(17))
	if err := sc.Send(rng, 256); err != nil {
		t.Fatal(err)
	}
	if !sc.S.Await(10*time.Second, func() bool { d, s := sc.Counts(); return d >= s }) {
		t.Fatal("message lost")
	}
	checkBooks(t, sc)
	sc.Close()
	checkBooks(t, sc)
}
