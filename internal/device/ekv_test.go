package device

import (
	"math"
	"testing"
)

// The EKV formula as it was written before Eval fused each branch's F and
// F' onto one softplus: two softplus calls per branch and a separate
// sigmoid. The fused evaluation must reproduce it bit for bit.

func oldSoftplus(x float64) float64 {
	if x > 40 {
		return x
	}
	if x < -40 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

func oldSigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func oldEkvF(x float64) float64 {
	l := oldSoftplus(x / 2)
	return l * l
}

func oldEkvFPrime(x float64) float64 {
	return oldSoftplus(x/2) * oldSigmoid(x/2)
}

// ekvTally counts which branches of the reference evaluation a grid
// reached, so the test can prove it covered the tails and the swap.
type ekvTally struct{ swapped, above, below int }

func (t *ekvTally) x(x float64) {
	switch {
	case x/2 > 40:
		t.above++
	case x/2 < -40:
		t.below++
	}
}

// refEval is Eval with the old ekvF/ekvFPrime pair.
func refEval(m *Mosfet, vgs, vds, vbs float64, tally *ekvTally) OperatingPoint {
	p := &m.Params
	sign := 1.0
	if p.Type == PMOS {
		sign = -1
		vgs, vds, vbs = -vgs, -vds, -vbs
	}
	swapped := false
	if vds < 0 {
		swapped = true
		tally.swapped++
		vgs, vds, vbs = vgs-vds, -vds, vbs-vds
	}
	vt := thermalVoltage(p.TempK)
	n := p.N
	vsb := -vbs
	gamma := p.Gamma + m.Mismatch.DeltaGamma
	phi := p.Phi
	sqrtPhi := math.Sqrt(phi)
	var sq, dsq float64
	if vsb >= 0 {
		sq = math.Sqrt(phi + vsb)
		dsq = 1 / (2 * sq)
	} else {
		sq = sqrtPhi + vsb/(2*sqrtPhi)
		dsq = 1 / (2 * sqrtPhi)
	}
	vteff := m.VT() + gamma*(sq-sqrtPhi)
	dvtdvsb := gamma * dsq
	beta := m.Beta()
	ispec := 2 * n * beta * vt * vt
	vp := (vgs - vteff) / n
	xf := vp / vt
	xr := (vp - vds) / vt
	tally.x(xf)
	tally.x(xr)
	ff := oldEkvF(xf)
	fr := oldEkvF(xr)
	lambda := p.Lambda * m.Damage.LambdaFactor
	clm := 1 + lambda*vds
	dclm := lambda
	idCore := ispec * (ff - fr)
	id := idCore * clm
	dfdxf := oldEkvFPrime(xf)
	dfdxr := oldEkvFPrime(xr)
	gm := ispec * (dfdxf - dfdxr) / (n * vt) * clm
	gds := ispec*dfdxr/vt*clm + idCore*dclm
	gmb := ispec * (dfdxf - dfdxr) * dvtdvsb / (n * vt) * clm
	region := classifyRegion(vgs, vds, vteff)
	if swapped {
		id, gm, gds, gmb = -id, -gm, gm+gds+gmb, -gmb
	}
	return OperatingPoint{ID: sign * id, Gm: gm, Gds: gds, Gmb: gmb, VTeff: vteff, Region: region}
}

// TestEkvMatchesOldFormula compares the fused F/F' helper with the old
// pair over a dense x grid spanning both softplus tails, the ±40 cut-offs
// and the special values.
func TestEkvMatchesOldFormula(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 80, -80, math.Nextafter(80, 0), math.Nextafter(80, 200),
		math.Nextafter(-80, 0), math.Nextafter(-80, -200), 1e-300, -1e-300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	for x := -200.0; x <= 200; x += 0.173 {
		xs = append(xs, x)
	}
	for _, x := range xs {
		f, fp := ekv(x)
		wf, wfp := oldEkvF(x), oldEkvFPrime(x)
		if math.Float64bits(f) != math.Float64bits(wf) || math.Float64bits(fp) != math.Float64bits(wfp) {
			t.Errorf("ekv(%g) = (%x, %x), old formula (%x, %x)", x,
				math.Float64bits(f), math.Float64bits(fp), math.Float64bits(wf), math.Float64bits(wfp))
		}
	}
}

// TestEvalBitIdenticalToOldFormula sweeps NMOS and PMOS devices, with
// mismatch and damage, over a bias grid that reaches reversed drain-source
// voltage (the swap path) and |x/2| > 40 on both sides, and requires every
// OperatingPoint field of Eval to match the old formula bit for bit.
func TestEvalBitIdenticalToOldFormula(t *testing.T) {
	tech := MustTech("65nm")
	nmos := NewMosfet(tech.NMOSParams(1e-6, 2*tech.Lmin, 300))
	pmos := NewMosfet(tech.PMOSParams(2e-6, 2*tech.Lmin, 350))
	pmos.Mismatch.DeltaVT0 = 0.013
	pmos.Mismatch.BetaFactor = 0.97
	pmos.Damage.DeltaVT = 0.02
	pmos.Damage.LambdaFactor = 1.1
	var tally ekvTally
	n := 0
	for _, m := range []*Mosfet{nmos, pmos} {
		for vgs := -6.0; vgs <= 6; vgs += 0.37 {
			for vds := -6.0; vds <= 6; vds += 0.41 {
				for _, vbs := range []float64{-1.2, -0.3, 0, 0.25} {
					got := m.Eval(vgs, vds, vbs)
					want := refEval(m, vgs, vds, vbs, &tally)
					n++
					same := got.Region == want.Region
					for _, pair := range [][2]float64{{got.ID, want.ID}, {got.Gm, want.Gm},
						{got.Gds, want.Gds}, {got.Gmb, want.Gmb}, {got.VTeff, want.VTeff}} {
						same = same && math.Float64bits(pair[0]) == math.Float64bits(pair[1])
					}
					if !same {
						t.Fatalf("%v Eval(%g, %g, %g) = %+v, old formula %+v", m.Params.Type, vgs, vds, vbs, got, want)
					}
				}
			}
		}
	}
	if tally.swapped == 0 || tally.above == 0 || tally.below == 0 {
		t.Fatalf("grid of %d points missed a branch: %+v", n, tally)
	}
}
