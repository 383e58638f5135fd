package infoslicing

import (
	"strings"
	"testing"

	"infoslicing/internal/eval"
)

// The determinism gate: the canonical scripted churn scenario — relays with
// live timers, heartbeat detection, two mid-stream kills, source-driven
// splices — run twice with the same seed must produce byte-identical
// delivery traces (the ordered sequence of (virtual-time, link, msg-type)
// events the virtual network observed). This is the property every scenario
// test in the suite leans on: a red run can be replayed exactly from its
// seed, and CI load cannot perturb an outcome.
func TestDeterminismGateSameSeedSameTrace(t *testing.T) {
	repaired := map[int64]string{}
	for _, seed := range []int64{31, 32, 7} {
		for _, repair := range []bool{true, false} {
			a, err := eval.RunCanonicalScenario(seed, repair)
			if err != nil {
				t.Fatal(err)
			}
			b, err := eval.RunCanonicalScenario(seed, repair)
			if err != nil {
				t.Fatal(err)
			}
			if a.Trace == "" {
				t.Fatalf("seed=%d repair=%v: empty delivery trace", seed, repair)
			}
			if a.Delivered != b.Delivered || a.Sent != b.Sent || a.Splices != b.Splices {
				t.Fatalf("seed=%d repair=%v: same seed, different outcomes: %+v vs %+v", seed, repair, a, b)
			}
			if a.Trace != b.Trace {
				al, bl := strings.Split(a.Trace, "\n"), strings.Split(b.Trace, "\n")
				for i := range al {
					if i >= len(bl) || al[i] != bl[i] {
						t.Fatalf("seed=%d repair=%v: traces diverge at event %d:\n  run1: %q\n  run2: %q\n(%d vs %d events)",
							seed, repair, i, al[i], bl[min(i, len(bl)-1)], len(al), len(bl))
					}
				}
				t.Fatalf("seed=%d repair=%v: traces differ in length: %d vs %d events", seed, repair, len(al), len(bl))
			}
			if repair {
				repaired[seed] = a.Trace
			}
		}
	}

	// Sanity: a different seed perturbs at least the trace timing — the
	// trace is capturing real behavior, not a constant.
	if repaired[31] == repaired[32] {
		t.Fatal("different seeds produced identical traces; the trace is not sensitive to the run")
	}
}
