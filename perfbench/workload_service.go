package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

const (
	smallTrials    = 100
	campaignTrials = 50000
)

// seedHistory fills dir with a retained job history: historyJobs
// finished 100-trial jobs journaled by a real server, which every
// set-up then replays.
func seedHistory(dir string, seed uint64) error {
	s, err := startService(dir)
	if err != nil {
		return err
	}
	jobs := s.closedLoop(nil, loadSpec{clients: 2, trials: smallTrials, seed: seed,
		stream: streamHistory, perCli: historyJobs / 2})
	if err := s.stop(); err != nil {
		return err
	}
	return firstFailure("seeding history", jobs)
}

// firstFailure reports the first job of an untimed batch that failed.
func firstFailure(what string, jobs [][]jobOut) error {
	for _, cj := range jobs {
		for _, j := range cj {
			if !j.ok() {
				return fmt.Errorf("%s: %s", what, j.err)
			}
		}
	}
	return nil
}

// setupService restarts a server over a copy of the seeded history
// setupReps times and returns the last one, live, with each restart's
// time to ready: store replay, job restoration, the first /readyz 200
// and a fixed warm-up batch.
func setupService(r *run, history string) (*service, []time.Duration, error) {
	var times []time.Duration
	for rep := 0; ; rep++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("data%d", rep))
		if err := copyDir(history, dir); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startService(dir)
		if err != nil {
			return nil, nil, err
		}
		if err := s.waitReady(); err != nil {
			s.stop()
			return nil, nil, err
		}
		warm := s.closedLoop(nil, loadSpec{clients: 2, trials: smallTrials, seed: r.seed,
			stream: streamWarmup, perCli: warmupJobs / 2})
		times = append(times, time.Since(t0))
		if err := firstFailure("warm-up", warm); err != nil {
			s.stop()
			return nil, nil, err
		}
		if rep == setupReps-1 {
			return s, times, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// serviceLoad is the closed loop of a service workload.
func serviceLoad(workload string, seed uint64) loadSpec {
	if workload == "mc-campaign" {
		return loadSpec{clients: 1, trials: campaignTrials, seed: seed}
	}
	return loadSpec{clients: 2, trials: smallTrials, seed: seed, repeats: true}
}

// runService runs small-jobs or mc-campaign.
func runService(r *run) error {
	history := filepath.Join(r.dir, "history")
	if err := seedHistory(history, r.seed); err != nil {
		return err
	}
	s, setups, err := setupService(r, history)
	if err != nil {
		return err
	}
	defer s.stop()
	ls := serviceLoad(r.workload, r.seed)
	if r.tr == nil {
		r.set("setup_s", median(durs(setups, time.Duration.Seconds)))
		ls.dur, ls.stream = r.dur, streamJobs
		runtime.GC()
		jobs := s.closedLoop(nil, ls)
		r.set("peak_rss_mb", peakRSSMB())
		serviceE2E(r, jobs, ls)
		checkJobs(r, jobs, ls)
		return nil
	}
	// Traced run: an untraced half and a traced half of the same load,
	// so their throughput difference is the tracing overhead.
	ls.dur, ls.stream = r.dur/2, streamJobs
	runtime.GC()
	plain := s.closedLoop(nil, ls)
	ls.stream = streamJobs + 1
	gc0, cpu0 := gcCPU()
	traced := tracedServicePhase(r, s, ls)
	r.set("runtime.gc_cpu_frac", gcFrac(gc0, cpu0))
	r.set("trace.overhead_frac", 1-primaryRate(traced, ls)/primaryRate(plain, ls))
	checkJobs(r, plain, ls)
	checkJobs(r, traced, ls)
	return ladder(r, mcSpec(ls.trials, deriveSeed(r.seed, streamWarmup, 0, 99)), history)
}

// tracedServicePhase runs one traced closed loop and derives the serve
// and store per-layer metrics from what the clients saw and from the
// server's counters.
func tracedServicePhase(r *run, s *service, ls loadSpec) [][]jobOut {
	runtime.GC()
	app0, fs0 := s.counter("store_journal_appends_total"), s.counter("store_journal_fsyncs_total")
	jobs := s.closedLoop(r.tr, ls)
	n := 0
	var lats, overhead, wait, runT []float64
	events, repeats, hits, refused := 0, 0, 0, 0
	for _, cj := range jobs {
		for _, j := range cj {
			if j.refused() {
				refused++
			}
			if !j.ok() {
				continue
			}
			n++
			lats = append(lats, ms(j.lat))
			events += j.events
			if j.repeatOf >= 0 {
				repeats++
				if j.cached {
					hits++
				}
			}
			if j.cached {
				continue
			}
			overhead = append(overhead, ms(httpOverhead(j.lat, j.submitted, j.finished)))
			wait = append(wait, ms(j.started.Sub(j.submitted)))
			runT = append(runT, ms(j.finished.Sub(j.started)))
		}
	}
	r.set("serve.http_overhead_ms", median(overhead))
	r.set("serve.queue_wait_ms", median(wait))
	r.set("serve.run_ms", median(runT))
	r.set("serve.job_p90_ms", quantile(lats, 0.9))
	r.set("serve.events_per_job", float64(events)/float64(n))
	r.set("serve.cache_hit_frac", 0) // no repeats in the load
	if repeats > 0 {
		r.set("serve.cache_hit_frac", float64(hits)/float64(repeats))
	}
	r.set("serve.rejected_frac", float64(refused)/float64(n+refused))
	r.set("store.appends_per_job", float64(s.counter("store_journal_appends_total")-app0)/float64(n))
	r.set("store.fsyncs_per_job", float64(s.counter("store_journal_fsyncs_total")-fs0)/float64(n))
	return jobs
}

// serviceE2E sets the end-to-end metrics of a service phase.
func serviceE2E(r *run, jobs [][]jobOut, ls loadSpec) {
	jobsPerS, trialsPerS, p50 := phaseRates(jobs, ls)
	r.set("jobs_per_s", jobsPerS)
	r.set("trials_per_s", trialsPerS)
	r.set("job_p50_ms", p50)
}

// phaseRates derives the throughput and median latency of a phase. One
// client waits for each job, so it completes 1/latency jobs a second and
// the median latency resists a stray slow job. With more clients the
// rates are medians over blocks of completions, which resist a short
// stall of the host.
func phaseRates(jobs [][]jobOut, ls loadSpec) (jobsPerS, trialsPerS, p50ms float64) {
	var lats []float64
	var all, executed []time.Duration
	for _, cj := range jobs {
		for _, j := range cj {
			if !j.ok() {
				continue
			}
			lats = append(lats, ms(j.lat))
			all = append(all, j.end)
			if !j.cached {
				executed = append(executed, j.end)
			}
		}
	}
	p50ms = median(lats)
	if ls.clients == 1 {
		return 1000 / p50ms, float64(ls.trials) * 1000 / p50ms, p50ms
	}
	const block = 200
	return median(blockRates(all, block)), float64(ls.trials) * median(blockRates(executed, block)), p50ms
}

// primaryRate is the throughput a phase is judged by: jobs per second
// for many small jobs, trials per second for a campaign.
func primaryRate(jobs [][]jobOut, ls loadSpec) float64 {
	jobsPerS, trialsPerS, _ := phaseRates(jobs, ls)
	if ls.clients == 1 {
		return trialsPerS
	}
	return jobsPerS
}

// checkJobs verifies every job of a phase. An executed result — a
// fresh job's, or a repeat's that missed the cache — must be
// bit-identical to executing the same spec in this process (wall-time
// fields aside), with no failed or NaN trial. A repeat answered from the
// cache must be byte-identical to a result the server executed for that
// spec earlier. A fresh spec answered from the cache is an error.
func checkJobs(r *run, jobs [][]jobOut, ls loadSpec) {
	type pending struct {
		j   *jobOut
		idx int // into fails
	}
	var todo []pending
	var fails []bool
	repeats, hits := 0, 0
	for _, cj := range jobs {
		executed := map[uint64][][32]byte{} // spec seed → raw result hashes
		for i := range cj {
			j := &cj[i]
			failed := false
			if j.repeatOf >= 0 {
				repeats++
			}
			switch {
			case j.refused():
				failed = r.bad("refused", fmt.Sprintf("HTTP %d", j.status))
			case !j.ok():
				failed = r.bad("failed_jobs", j.err)
			case j.cached && j.repeatOf < 0:
				failed = r.bad("check_mismatch", fmt.Sprintf("fresh seed %d was answered from the cache", j.seed))
			case j.cached:
				hits++
				if !slices.Contains(executed[j.seed], j.rawSum) {
					failed = r.bad("check_mismatch", fmt.Sprintf("cached result of seed %d matches no executed result of its spec", j.seed))
				}
			default:
				executed[j.seed] = append(executed[j.seed], j.rawSum)
			}
			fails = append(fails, failed)
			if !failed && !j.cached {
				todo = append(todo, pending{j, len(fails) - 1})
			}
		}
	}
	if repeats > 0 {
		fmt.Printf("repeats %d answered from the cache %d\n", repeats, hits)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(todo) {
					mu.Unlock()
					return
				}
				p := todo[next]
				next++
				mu.Unlock()
				sum, res, err := inprocSum(mcSpec(ls.trials, p.j.seed))
				mu.Lock()
				switch {
				case err != nil:
					fails[p.idx] = r.bad("check_mismatch", "in-process reference: "+err.Error())
				case sum != p.j.canon:
					fails[p.idx] = r.bad("check_mismatch", fmt.Sprintf("HTTP result of seed %d differs from in-process execution", p.j.seed))
				case res.MC.Failures > 0:
					fails[p.idx] = r.bad("trial_failures", fmt.Sprintf("seed %d: %d failed trials", p.j.seed, res.MC.Failures))
				case res.MC.NaNs > 0:
					fails[p.idx] = r.bad("nans", fmt.Sprintf("seed %d: %d NaN trials", p.j.seed, res.MC.NaNs))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		r.tally(f)
	}
}
