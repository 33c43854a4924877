package aging

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obs"
)

// fanoutCircuit is a current mirror with three outputs into different
// loads, so its four devices sit at four different drain biases and wear
// by four different amounts.
func fanoutCircuit(tech *device.Technology) *circuit.Circuit {
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddResistor("RREF", "vdd", "ref", 20e3)
	c.AddMOSFET("M1", "ref", "ref", "0", "0", device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300)))
	for i, rl := range []float64{2e3, 5e3, 9e3} {
		out := string(rune('a' + i))
		c.AddMOSFET("M"+string(rune('2'+i)), out, "ref", "0", "0", device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300)))
		c.AddResistor("RL"+out, "vdd", out, rl)
	}
	return c
}

// TestReseedMatchesNewCircuitAger ages a circuit, re-seeds its ager, and
// requires every device tracker — wear, elapsed time and the TDDB Weibull
// draws — to equal a freshly constructed ager on the same seed.
func TestReseedMatchesNewCircuitAger(t *testing.T) {
	tech := device.MustTech("90nm")
	c := fanoutCircuit(tech)
	ager := NewCircuitAger(c, DefaultModels(), 400, 3)
	ager.DutyOverride = map[string]float64{"M3": 0.4}
	if _, err := ager.AgeToCtx(context.Background(), LogCheckpoints(3600, 3e8, 5)); err != nil {
		t.Fatal(err)
	}
	// Break M1's oxide down under a 3 V gate and keep stressing it, so the
	// re-seed has a breakdown mode, a post-breakdown leak and time in
	// mode to clear as well as wear.
	m1 := ager.Ager("M1")
	for i := 0; i < 3; i++ {
		m1.Step(Stress{Vgs: 3, Vds: 1, Duty: 1, TempK: 400}, 1)
	}
	if m1.BDMode() == Fresh {
		t.Fatal("M1 did not break down; the re-seed would not be tested on a broken oxide")
	}
	for _, seed := range []uint64{3, 17} {
		ager.Reseed(seed)
		fresh := NewCircuitAger(c, DefaultModels(), 400, seed)
		for _, name := range fresh.SortedAgerNames() {
			got, want := ager.Ager(name), fresh.Ager(name)
			if got.tddb == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: re-seeded ager %+v (tddb %+v), fresh %+v (tddb %+v)",
					seed, name, *got, got.tddb, *want, want.tddb)
			}
		}
	}
}

// TestAgerStepAllocs pins CircuitAger.Step on a converged circuit, with a
// duty override and all three mechanisms, at zero allocations.
func TestAgerStepAllocs(t *testing.T) {
	tech := device.MustTech("90nm")
	c := fanoutCircuit(tech)
	ager := NewCircuitAger(c, DefaultModels(), 350, 1)
	ager.DutyOverride = map[string]float64{"M2": 0.5}
	if _, err := c.OperatingPoint(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { ager.Step(3600) }); n != 0 {
		t.Fatalf("CircuitAger.Step allocated %v times per call, want 0", n)
	}
}

// TestAgeProfileGaugeDeterministic runs the same multi-phase mission
// twice and requires the aging_last_delta_vt gauge to end on the same
// value: the ΔVT of the last device in name order.
func TestAgeProfileGaugeDeterministic(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	gauge := reg.Gauge("aging_last_delta_vt", "V", "last composed threshold shift")
	tech := device.MustTech("90nm")
	phases := []MissionPhase{
		{Duration: 1e7, TempK: 330, Checkpoints: 2},
		{Duration: 1e7, TempK: 400, Checkpoints: 3, Duty: map[string]float64{"M2": 0.3}},
	}
	var first float64
	for run := 0; run < 4; run++ {
		c := fanoutCircuit(tech)
		ager := NewCircuitAger(c, Models{NBTI: DefaultNBTI(), HCI: DefaultHCI()}, 300, 1)
		if _, err := ager.AgeProfile(phases); err != nil {
			t.Fatal(err)
		}
		last, err := c.MOSFETByName("M4")
		if err != nil {
			t.Fatal(err)
		}
		got := gauge.Value()
		if got != last.Dev.Damage.DeltaVT {
			t.Fatalf("run %d: gauge %g, want the last device's ΔVT %g", run, got, last.Dev.Damage.DeltaVT)
		}
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d: gauge %g differs from run 0's %g", run, got, first)
		}
	}
}
