package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/emc"
	"repro/internal/variation"
)

const (
	lifetimeTrials = 2000
	lifetimeBatch  = 32
	// lifetimeSeeds distinct campaigns repeat round-robin: the engine
	// caches nothing between campaigns, so a repeat costs the same, and
	// each distinct campaign needs only one reference run.
	lifetimeSeeds = 8
	year          = 365.25 * 24 * 3600
)

// mission is the lifetime workload's use profile: ten years at 350 K,
// four log-spaced aging checkpoints.
var mission = core.Mission{Duration: 10 * year, TempK: 350, Checkpoints: 4}

var tech180 = device.MustTech("180nm")

// buildReference is the Fig. 3 current reference.
func buildReference() (*circuit.Circuit, error) {
	return emc.BuildCurrentReference(tech180, true).Circuit, nil
}

// lifetimeSim is the campaign of one lifetime run: Pelgrom mismatch plus
// NBTI, HCI and TDDB aging, judged on the output voltage window.
func lifetimeSim(seed uint64, batch int) *core.Simulator {
	return &core.Simulator{
		Build:  buildReference,
		Tech:   tech180,
		Models: aging.DefaultModels(),
		Metrics: []core.Metric{{
			Name: "vout",
			Measure: func(c *circuit.Circuit) (float64, error) {
				sol, err := c.OperatingPoint()
				if err != nil {
					return 0, err
				}
				return sol.Voltage("out"), nil
			},
			Spec: variation.Spec{Name: "vout", Lo: specLo, Hi: specHi},
		}},
		Seed:  seed,
		Batch: batch,
	}
}

// campaignOut is what one lifetime campaign reported.
type campaignOut struct {
	seed   uint64
	lat    time.Duration
	err    error
	yield  []variation.YieldEstimate
	newton int64
	errors int
	// unmeasured counts trial-checkpoints with no finite metric value
	// (a NaN or a failed measurement).
	unmeasured int
}

func runCampaign(seed uint64, batch int) campaignOut {
	out := campaignOut{seed: seed}
	t0 := time.Now()
	res, err := lifetimeSim(seed, batch).RunCtx(bgCtx, lifetimeTrials, mission)
	out.lat = time.Since(t0)
	if err != nil {
		out.err = err
		return out
	}
	out.yield, out.newton, out.errors = res.Yield, res.Telemetry.NewtonIterations, res.Errors
	for k, y := range res.Yield {
		out.unmeasured += y.Total - int(res.MetricStats[k][0].Count)
	}
	return out
}

// campaigns runs lifetime campaigns back to back for dur.
func campaigns(tr *tracer, seed, stream uint64, dur time.Duration) []campaignOut {
	var outs []campaignOut
	t0 := time.Now()
	for k := uint64(0); time.Since(t0) < dur; k++ {
		sp := tr.begin("core.run", open{})
		outs = append(outs, runCampaign(deriveSeed(seed, stream, 0, k%lifetimeSeeds), lifetimeBatch))
		tr.end(sp)
	}
	return outs
}

// lifetimeRate is trials per second at the median campaign latency.
func lifetimeRate(outs []campaignOut) (trialsPerS, p50ms float64) {
	var lats []float64
	for _, o := range outs {
		if o.err == nil {
			lats = append(lats, ms(o.lat))
		}
	}
	p50ms = median(lats)
	return lifetimeTrials * 1000 / p50ms, p50ms
}

func runLifetime(r *run) error {
	var setups []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		o := runCampaign(deriveSeed(r.seed, streamWarmup, 2, uint64(rep)), lifetimeBatch)
		setups = append(setups, time.Since(t0))
		if o.err != nil {
			return fmt.Errorf("warm-up campaign: %w", o.err)
		}
	}
	if r.tr == nil {
		r.set("setup_s", median(durs(setups, time.Duration.Seconds)))
		runtime.GC()
		outs := campaigns(nil, r.seed, streamLifetime, r.dur)
		r.set("peak_rss_mb", peakRSSMB())
		rate, p50 := lifetimeRate(outs)
		r.set("trials_per_s", rate)
		r.set("job_p50_ms", p50)
		r.set("jobs_per_s", 1000/p50)
		checkCampaigns(r, outs)
		return nil
	}
	runtime.GC()
	plain := campaigns(nil, r.seed, streamLifetime, r.dur/2)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	traced := campaigns(r.tr, r.seed, streamLifetime+8, r.dur/2)
	r.set("runtime.gc_cpu_frac", gcFrac(gc0, cpu0))
	runtime.ReadMemStats(&m1)
	var newton int64
	for _, o := range traced {
		newton += o.newton
	}
	trials := float64(lifetimeTrials * len(traced))
	r.set("core.allocs_per_trial", float64(m1.Mallocs-m0.Mallocs)/trials)
	r.set("core.newton_iters_per_trial", float64(newton)/trials)
	tracedRate, _ := lifetimeRate(traced)
	plainRate, _ := lifetimeRate(plain)
	r.set("trace.overhead_frac", 1-tracedRate/plainRate)
	checkCampaigns(r, plain)
	checkCampaigns(r, traced)

	// The lifetime load never touches the service; a short small-jobs
	// probe supplies the serve and store rows of the ladder.
	history := filepath.Join(r.dir, "history")
	if err := seedHistory(history, r.seed); err != nil {
		return err
	}
	s, err := startService(filepath.Join(r.dir, "probe"))
	if err != nil {
		return err
	}
	ls := serviceLoad("small-jobs", r.seed)
	ls.dur, ls.stream = 2*time.Second, streamJobs+2
	probe := tracedServicePhase(r, s, ls)
	err = s.stop()
	checkJobs(r, probe, ls)
	if err != nil {
		return err
	}
	return ladder(r, mcSpec(smallTrials, deriveSeed(r.seed, streamWarmup, 0, 99)), history)
}

// checkCampaigns runs each distinct campaign again, untimed, on the
// one-circuit-per-trial path (Batch 1), and requires every timed run of
// it to report the same yield at every checkpoint and the same Newton
// iteration total, with no failed or unmeasured trial.
func checkCampaigns(r *run, outs []campaignOut) {
	refs := map[uint64]campaignOut{}
	for _, o := range outs {
		failed := false
		switch {
		case o.err != nil:
			failed = r.bad("failed_jobs", o.err.Error())
		case o.errors > 0:
			failed = r.bad("trial_failures", fmt.Sprintf("seed %d: %d failed trials", o.seed, o.errors))
		case o.unmeasured > 0:
			failed = r.bad("nans", fmt.Sprintf("seed %d: %d unmeasured trial checkpoints", o.seed, o.unmeasured))
		default:
			ref, ok := refs[o.seed]
			if !ok {
				ref = runCampaign(o.seed, 1)
				refs[o.seed] = ref
			}
			if ref.err != nil || ref.newton != o.newton || !sameYield(ref.yield, o.yield) {
				failed = r.bad("check_mismatch", fmt.Sprintf("seed %d: campaign differs from its reference run", o.seed))
			}
		}
		r.tally(failed)
	}
}

func sameYield(a, b []variation.YieldEstimate) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Pass != b[k].Pass || a[k].Total != b[k].Total {
			return false
		}
	}
	return true
}
