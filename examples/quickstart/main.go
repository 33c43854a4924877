// Quickstart: parse a small analog netlist, inspect its operating point,
// age it over a ten-year mission and estimate yield over life with Monte
// Carlo — the complete reliability-analysis loop in ~80 lines.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/variation"
)

const deck = `
* PMOS common-source stage at the 65nm node
.tech 65nm
VDD vdd 0 DC 1.1
VG  g   0 DC 0.55
M1  d g vdd vdd PMOS W=4u L=130n
RD  d 0 20k
.end
`

const year = 365.25 * 24 * 3600

func main() {
	d, err := netlist.Parse(deck)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	sol, err := d.Circuit.OperatingPoint()
	if err != nil {
		log.Fatalf("operating point: %v", err)
	}
	vnom := sol.Voltage("d")
	fmt.Printf("fresh operating point: V(d) = %s\n", report.SI(vnom, "V"))

	// Age this single die over ten years at 350 K and watch the output
	// drift as NBTI raises the pMOS threshold. Stepping checkpoint by
	// checkpoint lets us snapshot the accumulated damage at each age.
	ager := aging.NewCircuitAger(d.Circuit, aging.DefaultModels(), 350, 1)
	t := report.NewTable("single-die aging trajectory", "age", "V(d)", "ΔVT(M1)")
	t.AddRow("0yr", report.SI(vnom, "V"), "0V")
	prev := 0.0
	for _, age := range aging.LogCheckpoints(3600, 10*year, 8) {
		ager.Step(age - prev)
		prev = age
		cp, err := d.Circuit.OperatingPoint()
		if err != nil {
			t.AddRow(report.Years(age), "no convergence", "")
			continue
		}
		t.AddRow(report.Years(age),
			report.SI(cp.Voltage("d"), "V"),
			report.SI(d.MOSFETs["M1"].Dev.Damage.DeltaVT, "V"))
	}
	fmt.Println(t)

	// Monte-Carlo yield over life: every trial fabricates a die with
	// Pelgrom mismatch and ages it through the mission. The run is bounded
	// by a wall-clock budget — on expiry the completed trials are still
	// reported, with the skipped remainder accounted as Cancelled.
	sim := &core.Simulator{
		Build: func() (*circuit.Circuit, error) {
			dd, err := netlist.Parse(deck)
			if err != nil {
				return nil, err
			}
			return dd.Circuit, nil
		},
		Tech:   d.Tech,
		Models: aging.DefaultModels(),
		Metrics: []core.Metric{{
			Name: "vout",
			Measure: func(c *circuit.Circuit) (float64, error) {
				s, err := c.OperatingPoint()
				if err != nil {
					return 0, err
				}
				return s.Voltage("d"), nil
			},
			Spec: variation.Spec{Name: "vout", Lo: 0.8 * vnom, Hi: 1.2 * vnom},
		}},
		Seed: 42,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sim.RunCtx(ctx, 100, core.Mission{Duration: 10 * year, TempK: 350, Checkpoints: 6})
	if err != nil {
		if !errors.Is(err, variation.ErrCancelled) {
			log.Fatalf("monte carlo: %v", err)
		}
		log.Printf("warning: %v — reporting partial results", err)
	}
	yt := report.NewTable("yield over life (100 dies, ±20% vout spec)", "age", "yield")
	for k := range res.Times {
		yt.AddRow(report.Years(res.Times[k]), res.Yield[k].String())
	}
	fmt.Println(yt)
	fmt.Printf("median time to failure: %s\n", report.Years(res.MedianTTF()))
	tel := res.Telemetry
	fmt.Printf("run telemetry: %d/%d trials in %s, %d Newton iterations, %d errors, %d cancelled\n",
		tel.Completed, res.Trials, tel.WallTime.Round(time.Millisecond),
		tel.NewtonIterations, res.Errors, res.Cancelled)
	for _, te := range res.TrialErrors {
		fmt.Printf("  %s failure in %v\n", te.Kind(), te)
	}
}
