package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// goldenCanon renders every number a reliability run reports as exact
// IEEE bit patterns, so two renders are equal only if the runs are
// bit-identical.
func goldenCanon(r *Result) string {
	var b strings.Builder
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for k, y := range r.Yield {
		fmt.Fprintf(&b, "yield[%d] %d/%d %s %s %s\n", k, y.Pass, y.Total, bits(y.Yield), bits(y.Lo95), bits(y.Hi95))
	}
	for k, row := range r.MetricStats {
		for m, s := range row {
			fmt.Fprintf(&b, "stats[%d][%d] %d %s %s %s %s\n", k, m, s.Count, bits(s.Mean), bits(s.M2), bits(s.Min), bits(s.Max))
		}
	}
	b.WriteString("ft")
	for _, ft := range r.FailureTimes {
		b.WriteString(" " + bits(ft))
	}
	fmt.Fprintf(&b, "\nerrors %d cancelled %d newton %d\n", r.Errors, r.Cancelled, r.Telemetry.NewtonIterations)
	return b.String()
}

// TestRunGoldenPin pins ampSim("90nm", 42) over 24 trials and 4
// checkpoints to the output captured before the reliability simulator was
// moved onto the shared Monte-Carlo trial engine: yield, per-metric
// moments, failure times, error count and the Newton iteration total,
// bit for bit, for die reuse off and on and for one and four workers.
func TestRunGoldenPin(t *testing.T) {
	const want = `yield[0] 24/24 3ff0000000000000 3feb95b2ed296ea8 3ff0000000000000
yield[1] 20/24 3feaaaaaaaaaaaab 3fe486ea9c9f7a12 3feddce2017c250a
yield[2] 2/24 3fb5555555555555 3f97b6f1c9427698 3fd08b115826cad4
yield[3] 0/24 0000000000000000 0000000000000000 3fc1a9344b5a4560
yield[4] 0/24 0000000000000000 0000000000000000 3fc1a9344b5a4560
stats[0][0] 24 3fc78aad6a3f9f38 3f689ccb1bde08f5 3fc3f7aa3ab8b6c4 3fca182ebb87f98a
stats[1][0] 24 3fc56a2fa5f41c56 3f654f6ce95e62ed 3fc21ab0f4b82c40 3fc7ca6d22f833e1
stats[2][0] 24 3fc27968be5f2154 3f60f76c096eb772 3fbf14cb1bcd5db0 3fc4985bb1cf9a13
stats[3][0] 24 3fb8e0fee2a329e4 3f5218c7b45a7a9c 3fb4aa31f188eb56 3fbbfb04523ca6d5
stats[4][0] 24 3f9f9c6c97adf6ef 3f249c7219ba3f7e 3f99794b9f8a2091 3fa22807e267135f
ft 4063b9374bc6a7ee 4063b9374bc6a7ee 4063b9374bc6a7ee 4063b9374bc6a7ee 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 40ced16666666668 4138139800000004 4138139800000004
errors 0 cancelled 0 newton 336
`
	mission := Mission{Duration: 5 * year, TempK: 380, Checkpoints: 4}
	for _, procs := range []int{1, 4} {
		for _, batch := range []int{1, 32} {
			s := ampSim("90nm", 42)
			s.Batch = batch
			prev := runtime.GOMAXPROCS(procs)
			res, err := s.RunCtx(context.Background(), 24, mission)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenCanon(res); got != want {
				t.Errorf("procs=%d batch=%d: run differs from the golden pin\ngot:\n%s\nwant:\n%s", procs, batch, got, want)
			}
		}
	}
}
