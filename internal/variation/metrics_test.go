package variation

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// TestCampaignCountersCoverOnlyTrialsRun pins the variation_* outcome
// counters to the trials a Run actually executed: failures must be
// tallied even when per-trial errors are not kept (shard sub-jobs,
// resumed campaigns), and chunks folded from checkpoints must not count
// as trials run.
func TestCampaignCountersCoverOnlyTrialsRun(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	counter := func(name string) int64 {
		v, ok := reg.Snapshot().Counter(name)
		if !ok {
			t.Fatalf("counter %q not registered", name)
		}
		return v
	}
	const trials = 40
	failEvery4th := func(rng *mathx.RNG, i int) (float64, error) {
		if i%4 == 0 {
			return 0, errors.New("synthetic failure")
		}
		return rng.Norm(), nil
	}

	// 10 of 40 trials fail; KeepValues is false, so res.Errors stays empty.
	var chunks []ChunkStat
	t0, f0 := counter("variation_trials_total"), counter("variation_trial_failures_other_total")
	camp := &Campaign{Trials: trials, Seed: 3, Trial: failEvery4th,
		OnChunk: func(st ChunkStat) { chunks = append(chunks, st) }}
	if _, err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := counter("variation_trial_failures_other_total") - f0; got != 10 {
		t.Errorf("variation_trial_failures_other_total moved by %d, want 10", got)
	}
	if got := counter("variation_trials_total") - t0; got != trials {
		t.Errorf("variation_trials_total moved by %d, want %d", got, trials)
	}

	// Resuming every chunk runs no trial at all.
	t1, f1 := counter("variation_trials_total"), counter("variation_trial_failures_other_total")
	resumed := &Campaign{Trials: trials, Seed: 3, Trial: failEvery4th, Resume: chunks}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != len(chunks) {
		t.Fatalf("resumed %d chunks, want %d", res.Resumed, len(chunks))
	}
	if got := counter("variation_trials_total") - t1; got != 0 {
		t.Errorf("fully resumed campaign moved variation_trials_total by %d, want 0", got)
	}
	if got := counter("variation_trial_failures_other_total") - f1; got != 0 {
		t.Errorf("fully resumed campaign moved variation_trial_failures_other_total by %d, want 0", got)
	}
}
