package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/mathx"
)

// TestBatchedRunBitIdentical pins the contract of Simulator.Batch: reusing
// one circuit across a chunk of trials (snapshot-restored damage, reset
// solver state, re-seeded guess) must reproduce the one-circuit-per-trial
// run bit for bit — yield, failure times, metric means, and even the total
// Newton iteration count, which would drift if a reused die started from
// different solver state than a fresh build.
func TestBatchedRunBitIdentical(t *testing.T) {
	mission := Mission{Duration: 5 * year, TempK: 380, Checkpoints: 4}
	const trials = 24
	ref, err := ampSim("90nm", 42).RunCtx(context.Background(), trials, mission)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{5, 8, 64} {
		s := ampSim("90nm", 42)
		s.Batch = batch
		got, err := s.RunCtx(context.Background(), trials, mission)
		if err != nil {
			t.Fatalf("Batch=%d: %v", batch, err)
		}
		if got.Errors != ref.Errors || got.Cancelled != ref.Cancelled {
			t.Fatalf("Batch=%d: errors/cancelled %d/%d, want %d/%d",
				batch, got.Errors, got.Cancelled, ref.Errors, ref.Cancelled)
		}
		for k := range ref.Yield {
			if got.Yield[k] != ref.Yield[k] {
				t.Fatalf("Batch=%d: yield differs at checkpoint %d: %+v vs %+v",
					batch, k, got.Yield[k], ref.Yield[k])
			}
			for m := range ref.MetricMeans[k] {
				if got.MetricMeans[k][m] != ref.MetricMeans[k][m] {
					t.Fatalf("Batch=%d: metric mean differs at checkpoint %d metric %d: %g vs %g",
						batch, k, m, got.MetricMeans[k][m], ref.MetricMeans[k][m])
				}
			}
		}
		if len(got.FailureTimes) != len(ref.FailureTimes) {
			t.Fatalf("Batch=%d: %d failure times, want %d",
				batch, len(got.FailureTimes), len(ref.FailureTimes))
		}
		for i := range ref.FailureTimes {
			if got.FailureTimes[i] != ref.FailureTimes[i] {
				t.Fatalf("Batch=%d: failure time %d differs", batch, i)
			}
		}
		if got.Telemetry.NewtonIterations != ref.Telemetry.NewtonIterations {
			t.Fatalf("Batch=%d: %d Newton iterations, want %d — reused circuits are not starting from fresh-build state",
				batch, got.Telemetry.NewtonIterations, ref.Telemetry.NewtonIterations)
		}
	}
}

// TestBatchedRunSurvivesFailingBuild checks the chunk loop records a
// build failure as that trial's error and rebuilds for the next trial
// instead of wedging the whole chunk.
func TestBatchedRunSurvivesFailingBuild(t *testing.T) {
	s := ampSim("90nm", 7)
	inner := s.Build
	var mu sync.Mutex
	calls := 0
	s.Build = func() (*circuit.Circuit, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n%3 == 0 {
			return nil, errors.New("flaky fab")
		}
		return inner()
	}
	s.Batch = 4
	const trials = 12
	res, err := s.RunCtx(context.Background(), trials, Mission{Duration: year, TempK: 350, Checkpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("no build failures recorded despite flaky Build")
	}
	if got := res.Errors + len(res.FailureTimes); got != trials {
		t.Fatalf("errors + verdicts = %d, want %d — a chunk wedged after a build failure", got, trials)
	}
	for _, te := range res.TrialErrors {
		if te.Phase != "build" {
			t.Fatalf("unexpected error phase %q: %v", te.Phase, te)
		}
	}
}

// TestDieAgerReseedAllocs pins the per-trial re-seed of a die's ager —
// every device back to fresh wear, TDDB Weibull draws redrawn in place —
// at zero allocations.
func TestDieAgerReseedAllocs(t *testing.T) {
	s := tddbSim(11)
	if s.Models.TDDB == nil {
		t.Fatal("die models must include TDDB")
	}
	s.Batch = 4
	mission := Mission{Duration: year, TempK: 400, Checkpoints: 2, Duty: map[string]float64{"M1": 0.5}}
	d, err := s.diePool().Get()
	if err != nil {
		t.Fatal(err)
	}
	times := append([]float64{0}, mission.CheckpointTimes()...)
	if out := s.runTrialOn(&d.V, 0, mathx.NewRNG(1), times, mission); out.err != nil || d.V.ager == nil {
		t.Fatalf("first trial on the die: err %v, ager %v", out.err, d.V.ager)
	}
	seed := uint64(0)
	if n := testing.AllocsPerRun(100, func() { seed++; d.V.ager.Reseed(seed) }); n != 0 {
		t.Fatalf("Reseed allocated %v times per call, want 0", n)
	}
}
