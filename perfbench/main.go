// Command perfbench is the repository's benchmark: it runs one workload
// against the real engine in this process, checks every output, and
// prints every metric by name with its unit. The last line of standard
// output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it from
// source first:
//
//	bash perfbench/run.sh --workload small-jobs --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh describe > BENCHMARK.json
//	bash perfbench/run.sh steady --workload lifetime --runs 5
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same load
// traced and reports the per-layer metrics. README.md explains the
// workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var bgCtx = context.Background()

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "describe":
			b, err := describe()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(b)
			return
		case "steady":
			if err := steady(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "small-jobs, mc-campaign or lifetime")
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", runSeconds, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	fs.Parse(os.Args[1:])
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	res, err := benchmark(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workDir is where runs keep their data, relative to the checkout root
// the benchmark runs from.
const workDir = ".bench_build/runs"

// benchmark runs one workload and prints the human-readable lines that
// precede the result: host fingerprint, failure accounting, every metric
// with its unit and, when traced, the per-layer self times.
func benchmark(workload string, seed uint64, dur time.Duration, traced bool) (*result, error) {
	var body func(*run) error
	switch workload {
	case "small-jobs", "mc-campaign":
		body = runService
	case "lifetime":
		body = runLifetime
	default:
		return nil, fmt.Errorf("unknown workload %q (want small-jobs, mc-campaign or lifetime)", workload)
	}
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{workload: workload, seed: seed, dur: dur, dir: dir,
		metrics: map[string]float64{}, failures: map[string]int{}}
	defs := endToEnd
	if traced {
		r.tr = newTracer()
		defs = perLayer
	}
	host, _ := json.Marshal(fingerprint(dir))
	fmt.Printf("host %s\n", host)
	if err := body(r); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}

	probs := r.report(defs)
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok {
			fmt.Printf("metric %-30s %14.6g %s\n", d.Name, v, d.Unit)
			if !math.IsNaN(v) && !math.IsInf(v, 0) { // report flagged it; JSON cannot carry it
				res.Metrics[d.Name] = metricValue{v, d.Unit}
			}
		}
	}
	kinds := make([]string, 0, len(r.failures))
	for k := range r.failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("attempts %d failed %d", r.attempted, r.failed)
	for _, k := range kinds {
		fmt.Printf(" %s=%d", k, r.failures[k])
	}
	fmt.Println()
	for _, s := range append(r.samples, probs...) {
		fmt.Println("problem", s)
	}
	if r.tr != nil {
		path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-%d.ndjson", workload, seed))
		if err := r.tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace %d spans written to %s\n%s", len(r.tr.spans), path, selfTimeTable(r.tr))
	}
	res.Correct = r.failed == 0 && r.attempted > 0 && len(probs) == 0
	return res, nil
}
