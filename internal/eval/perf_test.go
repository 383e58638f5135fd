package eval

import (
	"testing"
	"time"

	"infoslicing/internal/simnet"
)

func TestParamsValidation(t *testing.T) {
	if _, err := SlicingFlow(Params{L: 0, D: 2}); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := OnionFlow(Params{L: 2, D: 0}); err == nil {
		t.Fatal("D=0 accepted")
	}
	if _, err := SlicingScaling(ScalingParams{
		Params: Params{L: 5, D: 3}, PoolSize: 5, Flows: 1,
	}); err == nil {
		t.Fatal("tiny pool accepted")
	}
}

// hop is a link with a propagation delay and no rate or jitter shaping.
var hop = simnet.LinkProfile{Delay: time.Millisecond}

func TestSlicingFlowUnshaped(t *testing.T) {
	res, err := SlicingFlow(Params{
		Profile: hop, L: 3, D: 2, DPrime: 2,
		TransferBytes: 64 << 10, ChunkPayload: 2048, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Set-up crosses the three stages, one hop each.
	if res.SetupTime != 3*time.Millisecond || res.Throughput <= 0 {
		t.Fatalf("%+v", res)
	}
}

func TestOnionFlowUnshaped(t *testing.T) {
	res, err := OnionFlow(Params{
		Profile: hop, L: 3, D: 1,
		TransferBytes: 64 << 10, ChunkPayload: 2048, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SetupTime != 3*time.Millisecond || res.Throughput <= 0 {
		t.Fatalf("%+v", res)
	}
}
