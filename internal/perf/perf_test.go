package perf

import (
	"testing"
	"time"

	"infoslicing/internal/overlay"
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

func TestSlicingFlowUnshaped(t *testing.T) {
	res, err := SlicingFlow(Params{
		Profile: overlay.Unshaped(), L: 3, D: 2, DPrime: 2,
		TransferBytes: 64 << 10, ChunkPayload: 2048, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v", res.Throughput)
	}
	if res.SetupTime <= 0 || res.SetupTime > 10*time.Second {
		t.Fatalf("setup %v", res.SetupTime)
	}
}

func TestOnionFlowUnshaped(t *testing.T) {
	res, err := OnionFlow(Params{
		Profile: overlay.Unshaped(), L: 3, D: 1,
		TransferBytes: 64 << 10, ChunkPayload: 2048, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.SetupTime <= 0 {
		t.Fatalf("%+v", res)
	}
}

// The paper's Fig. 11 shape in the calibrated 2007 environment: slicing
// relays forward without per-hop cryptography, so slicing beats the onion
// baseline whose relays decrypt every byte on era hardware.
func TestSlicingBeatsOnionLAN2007(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison is slow")
	}
	env := LAN2007()
	sl, err := SlicingFlow(Params{
		Profile: env.Profile, L: 3, D: 2, DPrime: 2,
		TransferBytes: 1 << 20, ChunkPayload: 2400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	on, err := OnionFlow(Params{
		Profile: env.Profile, L: 3, D: 1, OnionCryptoPerKB: env.OnionCryptoPerKB,
		TransferBytes: 1 << 20, ChunkPayload: 1200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sl.Throughput <= on.Throughput {
		t.Fatalf("slicing %.0f bps should beat onion %.0f bps", sl.Throughput, on.Throughput)
	}
	// Calibration sanity: onion lands in the paper's ~25-35 Mb/s LAN band.
	if on.Throughput < 10e6 || on.Throughput > 60e6 {
		t.Fatalf("onion LAN throughput %.0f bps outside calibration band", on.Throughput)
	}
}

func TestScalingTwoFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test is slow")
	}
	total, err := SlicingScaling(ScalingParams{
		Params: Params{
			Profile: overlay.Unshaped(), L: 2, D: 2, DPrime: 2,
			TransferBytes: 32 << 10, ChunkPayload: 2048, Seed: 4,
		},
		PoolSize: 20, Flows: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("total throughput %v", total)
	}
}
