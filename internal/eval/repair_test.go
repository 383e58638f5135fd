package eval

import "testing"

// The experiment's headline claim, pinned as a test: a same-stage failure
// schedule that exceeds the redundancy budget (2 kills at d'-d = 1) kills
// redundancy-only sessions and spares repaired ones. Kept small — one
// trial, two flows — because the root-level stress test covers scale; this
// pins the harness itself.
func TestLiveRepairBeatsRedundancyOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("live overlay experiment")
	}
	base := LiveRepairParams{
		L: 3, D: 2, DPrime: 3,
		Flows: 2, Messages: 6, MessageBytes: 256,
		KillPerFlow: 2, Trials: 1, Seed: 7,
	}
	on := base
	on.Repair = true
	resOn, err := RunLiveRepair(on)
	if err != nil {
		t.Fatal(err)
	}
	off := base
	resOff, err := RunLiveRepair(off)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("repair on: %+v; repair off: %+v", resOn, resOff)
	if resOn.Splices < 2 {
		t.Fatalf("repair arm spliced %d times, want >= 2", resOn.Splices)
	}
	if resOff.Splices != 0 {
		t.Fatalf("detection-only arm spliced %d times", resOff.Splices)
	}
	if resOff.Reports == 0 {
		t.Fatal("detection-only arm never reported a failure")
	}
	if resOn.Delivered <= resOff.Delivered {
		t.Fatalf("repair (%.2f) did not beat redundancy-only (%.2f)",
			resOn.Delivered, resOff.Delivered)
	}
	if resOn.Delivered < 0.9 {
		t.Fatalf("repair arm delivered only %.2f, want >= 0.9", resOn.Delivered)
	}
}

func TestLiveRepairParamValidation(t *testing.T) {
	if _, err := RunLiveRepair(LiveRepairParams{L: 1, D: 2, DPrime: 2, Flows: 1, Trials: 1}); err == nil {
		t.Fatal("L=1 accepted (no stage without the destination)")
	}
	if _, err := RunLiveRepair(LiveRepairParams{
		L: 2, D: 2, DPrime: 2, Flows: 1, Trials: 1, KillPerFlow: 2,
	}); err == nil {
		t.Fatal("KillPerFlow == DPrime accepted (stage would vanish)")
	}
	// A trial that cannot be set up is an error, not a session that
	// delivered nothing.
	if res, err := RunLiveRepair(LiveRepairParams{L: 2, D: 2, DPrime: 256, Flows: 1, Trials: 1}); err == nil {
		t.Fatalf("relay ids colliding with spares scored as %+v", res)
	}
	if res, err := RunLiveRepair(LiveRepairParams{L: 2, D: 2, DPrime: 3, Flows: 501, Trials: 1}); err == nil {
		t.Fatalf("flow 500's relays colliding with flow 0's sources scored as %+v", res)
	}
}
