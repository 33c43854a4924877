package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// run is one benchmark process: one workload, one seed, traced or not.
type run struct {
	workload string
	seed     uint64
	dur      time.Duration
	dir      string  // scratch directory of this run, inside the checkout
	tr       *tracer // nil when tracing is off
	metrics  map[string]float64
	// attempted counts jobs or campaigns; failed those that failed,
	// were refused or did not pass their output check. failures breaks
	// the problems down by kind.
	attempted, failed int
	failures          map[string]int
	samples           []string
}

// bad records a problem of kind with an example message. It returns
// true so a caller can mark the attempt failed once.
func (r *run) bad(kind, msg string) bool {
	r.failures[kind]++
	if len(r.samples) < 5 {
		r.samples = append(r.samples, kind+": "+msg)
	}
	return true
}

// tally adds one attempt and its verdict.
func (r *run) tally(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// report validates the collected metrics against the declared list and
// returns the problems: a missing or non-finite metric invalidates the
// run.
func (r *run) report(defs []metricDef) []string {
	var probs []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		switch {
		case !ok:
			probs = append(probs, "metric "+d.Name+" was not measured")
		case math.IsNaN(v) || math.IsInf(v, 0):
			probs = append(probs, fmt.Sprintf("metric %s is %v", d.Name, v))
		}
	}
	return probs
}

// gcCPU reads the cumulative GC and total CPU seconds of the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// gcFrac returns the GC share of CPU since the reading (gc0, total0).
func gcFrac(gc0, total0 float64) float64 {
	gc, total := gcCPU()
	if total <= total0 {
		return 0
	}
	return (gc - gc0) / (total - total0)
}

// selfTimeTable formats per-span-name self time, largest first.
func selfTimeTable(tr *tracer) string {
	st := selfTimes(tr.spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  self %-24s %10.1f ms\n", n, ms(st[n]))
	}
	return b.String()
}
