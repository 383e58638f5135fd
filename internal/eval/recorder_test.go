package eval

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"infoslicing/internal/relay"
)

// canonicalEvents runs the canonical scenario and renders every relay's
// flight-recorder log for the flow it carried, relays in id order; kinds
// counts the events by kind, and spares the spares' logs.
func canonicalEvents(t *testing.T, seed int64, repair bool) (log string, kinds map[relay.EventKind]int, spares [][]relay.FlowEvent) {
	t.Helper()
	tb := newTestbed(seed, simLink)
	defer tb.close()
	fl, err := tb.scenario(seed, 3, repair)
	if err != nil {
		t.Fatal(err)
	}
	flows := maps.Clone(fl.g.Flows) // a splice takes relays off the graph
	if _, err := tb.canonical(seed, fl); err != nil {
		t.Fatal(err)
	}
	maps.Copy(flows, fl.g.Flows) // and puts spares (ids from 500) on
	var b strings.Builder
	kinds = map[relay.EventKind]int{}
	for _, id := range slices.Sorted(maps.Keys(tb.relays)) {
		ev := tb.relays[id].FlowEvents(flows[id])
		for _, e := range ev {
			fmt.Fprintf(&b, "relay %d: %v\n", id, e)
			kinds[e.Kind]++
		}
		if id >= 500 && len(ev) > 0 {
			spares = append(spares, ev)
		}
	}
	return b.String(), kinds, spares
}

// The flight recorder replays from the seed and says what happened: with
// repair on, relays report a parent down, its parents splice, and the spare
// that replaces it is admitted before it establishes; without repair
// nothing is spliced.
func TestFlowEventsReplayCanonicalScenario(t *testing.T) {
	for _, seed := range []int64{31, 32, 7} {
		for _, repair := range []bool{true, false} {
			log, kinds, spares := canonicalEvents(t, seed, repair)
			if again, _, _ := canonicalEvents(t, seed, repair); again != log {
				t.Fatalf("seed %d repair %v: the logs differ between runs:\n%s\nvs\n%s", seed, repair, log, again)
			}
			if kinds[relay.EvParentDown] == 0 || (kinds[relay.EvSplice] > 0) != repair || (len(spares) > 0) != repair {
				t.Fatalf("seed %d repair %v: %d parent-downs, %d splices, %d spares in\n%s",
					seed, repair, kinds[relay.EvParentDown], kinds[relay.EvSplice], len(spares), log)
			}
			for _, ev := range spares {
				if ev[0].Kind != relay.EvAdmit || !slices.ContainsFunc(ev, func(e relay.FlowEvent) bool { return e.Kind == relay.EvEstablish }) {
					t.Fatalf("seed %d: a spare recorded %v, want admit, then establish", seed, ev)
				}
			}
		}
	}
}
