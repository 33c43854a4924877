package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/aging"
	"repro/internal/jobspec"
	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/store"
)

func nsToUS(ns float64) float64 { return ns / 1e3 }

// sink keeps the compiler from discarding probed calls.
var sink float64

// perCall times reps batches of n calls of f, each batch inside a span,
// and returns the median time per call in nanoseconds.
func perCall(tr *tracer, name string, reps, n int, f func(i int)) float64 {
	var per []float64
	for rep := 0; rep < reps; rep++ {
		sp := tr.begin(name, open{})
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(rep*n + i)
		}
		d := time.Since(t0)
		tr.end(sp)
		per = append(per, float64(d)/float64(n))
	}
	return median(per)
}

// ladder measures each layer from outside by timing calls into its
// public functions, on the inputs of the workload: spec is the kind of
// job the service ran and history a seeded store directory.
func ladder(r *run, spec *jobspec.Spec, history string) error {
	tr := r.tr

	// jobspec: execute the workload spec in process with a checkpoint
	// callback, as the service does; keep a checkpoint payload for the
	// store rows.
	var payload []byte
	var execs []float64
	var res *jobspec.Result
	reps, encodes := 20, 200
	if spec.MC.Trials >= campaignTrials {
		reps, encodes = 3, 2
	}
	for rep := 0; rep < reps; rep++ {
		sp := tr.begin("ladder.jobspec.execute", open{})
		t0 := time.Now()
		var err error
		res, err = jobspec.ExecuteOpts(bgCtx, spec, jobspec.Options{OnCheckpoint: func(cp jobspec.Checkpoint) {
			payload = cp.Data
		}})
		execs = append(execs, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("ladder execute: %w", err)
		}
	}
	r.set("jobspec.execute_ms", median(execs))
	// The service ran this same kind of spec; its run time over the
	// in-process execution time is what the service path costs.
	r.set("serve.service_over_inproc", r.metrics["serve.run_ms"]/median(execs))
	r.set("jobspec.encode_us", nsToUS(perCall(tr, "ladder.jobspec.encode", 5, encodes, func(int) {
		b, _ := json.Marshal(res)
		sink += float64(len(b))
	})))
	body := mcBody(spec.MC.Trials, spec.Seed)
	raw := make([]*jobspec.Spec, 5*500)
	for i := range raw {
		raw[i] = new(jobspec.Spec)
		if err := json.Unmarshal(body, raw[i]); err != nil {
			return err
		}
	}
	var hashErr error
	r.set("jobspec.hash_us", nsToUS(perCall(tr, "ladder.jobspec.hash", 5, 500, func(i int) {
		s := raw[i]
		s.ApplyDefaults()
		if err := s.Validate(); err != nil {
			hashErr = err
		}
		sink += float64(len(s.CanonicalHash()))
	})))
	if hashErr != nil {
		return hashErr
	}

	// variation: one 50k-trial campaign; every interval between two
	// checkpoint callbacks is one chunk.
	var chunks []float64
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.begin("ladder.variation.campaign", open{})
	last := time.Now()
	if _, err := jobspec.ExecuteOpts(bgCtx, mcSpec(campaignTrials, spec.Seed), jobspec.Options{OnCheckpoint: func(jobspec.Checkpoint) {
		now := time.Now()
		chunks = append(chunks, ms(now.Sub(last)))
		last = now
	}}); err != nil {
		return fmt.Errorf("ladder campaign: %w", err)
	}
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	r.set("variation.chunk_ms", median(chunks))
	r.set("variation.allocs_per_trial", float64(m1.Mallocs-m0.Mallocs)/campaignTrials)
	r.set("variation.bytes_per_trial", float64(m1.TotalAlloc-m0.TotalAlloc)/campaignTrials)

	if err := storeLadder(r, payload, history); err != nil {
		return err
	}
	if err := solverLadder(r); err != nil {
		return err
	}
	return agingLadder(r)
}

// storeLadder times the journal append of a checkpoint payload, the
// replay of the seeded history and a result-cache hit.
func storeLadder(r *run, payload []byte, history string) error {
	tr := r.tr
	dir := filepath.Join(r.dir, "ladder-store")
	st, err := store.Open(dir, nil, storeOpts)
	if err != nil {
		return err
	}
	spec := mcSpec(smallTrials, 1)
	if err := st.JobSubmitted("probe", spec, spec.CanonicalHash(), store.SubmitMeta{}, time.Now()); err != nil {
		st.Close()
		return err
	}
	var appendErr error
	r.set("store.append_us", nsToUS(perCall(tr, "ladder.store.append", 5, 40, func(i int) {
		if err := st.JobCheckpoint("probe", i, payload, time.Now()); err != nil {
			appendErr = err
		}
	})))
	if err := errors.Join(appendErr, st.Close(), os.RemoveAll(dir)); err != nil {
		return err
	}

	var replays []float64
	for rep := 0; rep < 5; rep++ {
		if err := copyDir(history, dir); err != nil {
			return err
		}
		sp := tr.begin("ladder.store.replay", open{})
		t0 := time.Now()
		st, err = store.Open(dir, nil, storeOpts)
		replays = append(replays, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		if rep < 4 {
			if err := errors.Join(st.Close(), os.RemoveAll(dir)); err != nil {
				return err
			}
		}
	}
	r.set("store.replay_ms", median(replays))
	hash := mcSpec(smallTrials, deriveSeed(r.seed, streamHistory, 0, 0)).CanonicalHash()
	hit := true
	r.set("store.cache_lookup_us", nsToUS(perCall(tr, "ladder.store.cache_lookup", 5, 100, func(int) {
		_, b, ok := st.CachedResult(hash)
		hit = hit && ok
		sink += float64(len(b))
	})))
	if err := errors.Join(st.Close(), os.RemoveAll(dir)); err != nil {
		return err
	}
	if !hit {
		return errors.New("ladder: a seeded history job missed the result cache")
	}
	return nil
}

// solverLadder times netlist parsing, a warm operating point after a
// one-device perturbation, one device evaluation at the deck's bias
// point and a dense LU factor+solve at the deck's MNA size.
func solverLadder(r *run) error {
	tr := r.tr
	var parseErr error
	r.set("netlist.parse_us", nsToUS(perCall(tr, "ladder.netlist.parse", 5, 200, func(int) {
		if _, err := netlist.Parse(deck); err != nil {
			parseErr = err
		}
	})))
	d, err := netlist.Parse(deck)
	if err := errors.Join(parseErr, err); err != nil {
		return err
	}
	c := d.Circuit
	sol, err := c.OperatingPoint()
	if err != nil {
		return err
	}
	vg, vd := sol.Voltage("gate"), sol.Voltage("out")
	m2 := d.MOSFETs["M2"].Dev
	m1 := d.MOSFETs["M1"].Dev
	const ops = 200
	n0 := c.NewtonIterations()
	var opErr error
	r.set("circuit.op_warm_us", nsToUS(perCall(tr, "ladder.circuit.op", 5, ops, func(i int) {
		m1.Mismatch.DeltaVT0 = 1e-3 * float64(i%5)
		if _, err := c.OperatingPoint(); err != nil {
			opErr = err
		}
	})))
	r.set("circuit.newton_iters_per_op", float64(c.NewtonIterations()-n0)/(5*ops))
	if opErr != nil {
		return opErr
	}
	r.set("device.eval_ns", (perCall(tr, "ladder.device.eval", 5, 20000, func(i int) {
		sink += m2.Eval(vg, vd+1e-9*float64(i&7), 0).ID
	})))

	n := c.NumUnknowns()
	a := linalg.NewMatrix(n, n)
	rng := rand.New(rand.NewSource(int64(r.seed)))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Float64()-0.5)
		}
		a.Add(i, i, float64(n))
	}
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	var lu linalg.LU
	var luErr error
	r.set("linalg.factor_solve_ns", (perCall(tr, "ladder.linalg.factor_solve", 5, 20000, func(int) {
		if err := lu.FactorInto(a); err != nil {
			luErr = err
		}
		lu.SolveInto(x, b)
		sink += x[0]
	})))
	return luErr
}

// agingLadder times building a circuit ager and aging a die through the
// mission checkpoints; outside the lifetime workload it also runs one
// campaign for the core rows.
func agingLadder(r *run) error {
	tr := r.tr
	c, _ := buildReference()
	if _, err := c.OperatingPoint(); err != nil {
		return err
	}
	r.set("aging.ager_new_us", nsToUS(perCall(tr, "ladder.aging.ager_new", 5, 200, func(i int) {
		a := aging.NewCircuitAger(c, aging.DefaultModels(), mission.TempK, uint64(i))
		sink += float64(len(a.SortedAgerNames()))
	})))
	times := mission.CheckpointTimes()
	var ages []float64
	for rep := 0; rep < 10; rep++ {
		c, _ := buildReference()
		a := aging.NewCircuitAger(c, aging.DefaultModels(), mission.TempK, uint64(rep))
		sp := tr.begin("ladder.aging.ageto", open{})
		t0 := time.Now()
		_, err := a.AgeToCtx(bgCtx, times)
		ages = append(ages, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.set("aging.ageto_ms", median(ages))

	if _, ok := r.metrics["core.allocs_per_trial"]; ok {
		return nil
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.begin("ladder.core.run", open{})
	o := runCampaign(deriveSeed(r.seed, streamWarmup, 0, 98), lifetimeBatch)
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	if o.err != nil {
		return o.err
	}
	r.set("core.allocs_per_trial", float64(m1.Mallocs-m0.Mallocs)/lifetimeTrials)
	r.set("core.newton_iters_per_trial", float64(o.newton)/lifetimeTrials)
	return nil
}
