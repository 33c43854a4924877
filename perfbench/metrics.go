package main

import (
	"encoding/json"
)

// workloadDef names one workload and why the benchmark runs it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef is one reported metric. Bound is set only on end-to-end
// metrics: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

var workloads = []workloadDef{
	{"small-jobs", "2 tenants (3:1) in a closed loop of 100-trial mc jobs over HTTP on a journaled store; every 4th repeats a spec, so serve, store and the cache dominate"},
	{"mc-campaign", "1 client submitting 50k-trial mc jobs over HTTP, 196 journaled chunk checkpoints each; device, Newton, LU and per-trial allocation dominate"},
	{"lifetime", "in-process core.Simulator campaigns (2000 trials, mismatch plus a 10-year 350 K mission, 4 checkpoints) back to back; the only workload in aging and core"},
}

// endToEnd are measured with tracing off; every workload reports all of
// them (see README.md for the ones that rescale another on a workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"jobs_per_s", "1/s", "higher", bound(0.25)},
	{"job_p50_ms", "ms", "lower", bound(0.25)},
	{"trials_per_s", "1/s", "higher", bound(0.25)},
	{"peak_rss_mb", "MB", "lower", bound(0.25)},
}

// perLayer come from the traced run and carry no bound.
var perLayer = []metricDef{
	{"serve.http_overhead_ms", "ms", "lower", nil},
	{"serve.queue_wait_ms", "ms", "lower", nil},
	{"serve.run_ms", "ms", "lower", nil},
	{"serve.job_p90_ms", "ms", "lower", nil},
	{"serve.events_per_job", "count", "lower", nil},
	{"serve.cache_hit_frac", "fraction", "higher", nil},
	{"serve.rejected_frac", "fraction", "lower", nil},
	{"serve.service_over_inproc", "ratio", "lower", nil},
	{"store.fsyncs_per_job", "count", "lower", nil},
	{"store.appends_per_job", "count", "lower", nil},
	{"store.append_us", "us", "lower", nil},
	{"store.replay_ms", "ms", "lower", nil},
	{"store.cache_lookup_us", "us", "lower", nil},
	{"jobspec.execute_ms", "ms", "lower", nil},
	{"jobspec.hash_us", "us", "lower", nil},
	{"jobspec.encode_us", "us", "lower", nil},
	{"netlist.parse_us", "us", "lower", nil},
	{"variation.chunk_ms", "ms", "lower", nil},
	{"variation.allocs_per_trial", "count", "lower", nil},
	{"variation.bytes_per_trial", "B", "lower", nil},
	{"circuit.op_warm_us", "us", "lower", nil},
	{"circuit.newton_iters_per_op", "count", "lower", nil},
	{"device.eval_ns", "ns", "lower", nil},
	{"linalg.factor_solve_ns", "ns", "lower", nil},
	{"aging.ager_new_us", "us", "lower", nil},
	{"aging.ageto_ms", "ms", "lower", nil},
	{"core.allocs_per_trial", "count", "lower", nil},
	{"core.newton_iters_per_trial", "count", "lower", nil},
	{"runtime.gc_cpu_frac", "fraction", "lower", nil},
	{"trace.overhead_frac", "fraction", "lower", nil},
}

// runSeconds is how long one run measures.
const runSeconds = 20

// describe renders BENCHMARK.json from the tables above, so the
// descriptor and the program cannot disagree on a name or unit.
func describe() ([]byte, error) {
	type perLayerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	pl := make([]perLayerJSON, len(perLayer))
	for i, m := range perLayer {
		pl[i] = perLayerJSON{m.Name, m.Unit, m.Better}
	}
	b, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDef  `json:"workloads"`
		EndToEnd   []metricDef    `json:"end_to_end"`
		PerLayer   []perLayerJSON `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   pl,
	}, "", "  ")
	return append(b, '\n'), err
}
