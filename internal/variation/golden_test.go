package variation

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/mathx"
)

// goldenTrial mixes successes, errors, NaNs and panics so one pin covers
// every outcome the trial engine accounts for.
func goldenTrial(rng *mathx.RNG, i int) (float64, error) {
	v := rng.Norm()
	switch {
	case i%37 == 5:
		return 0, errors.New("synthetic failure")
	case i%41 == 3:
		return math.NaN(), nil
	case i%97 == 11:
		panic("synthetic panic")
	}
	return v + float64(i)*1e-9, nil
}

// TestMonteCarloGoldenPin pins MonteCarloCtx(ctx, 500, 42, goldenTrial)
// to the output captured before the Monte-Carlo trial paths were merged
// into one engine: every bit of Values (as a SHA-256 over the IEEE bit
// patterns in trial order), the NaN and failure counts, and the order,
// phase and kind of every structured error. It must hold for any
// GOMAXPROCS.
func TestMonteCarloGoldenPin(t *testing.T) {
	const (
		wantValues   = 467
		wantDigest   = "f0f9a9a4d4d6f0f093922613b0ce753235e27fb6cf44e55a029107ea00e103a4"
		wantNaNs     = 13
		wantFailures = 20
		wantErrors   = "5/trial/other;11/trial/panic;42/trial/other;79/trial/other;108/trial/panic;116/trial/other;153/trial/other;190/trial/other;205/trial/panic;227/trial/other;264/trial/other;301/trial/other;302/trial/panic;338/trial/other;375/trial/other;399/trial/panic;412/trial/other;449/trial/other;486/trial/other;496/trial/panic;"
	)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := MonteCarloCtx(context.Background(), 500, 42, goldenTrial)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, v := range res.Values {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		errs := ""
		for _, te := range res.Errors {
			errs += fmt.Sprintf("%d/%s/%s;", te.Index, te.Phase, te.Kind())
		}
		if len(res.Values) != wantValues || fmt.Sprintf("%x", h.Sum(nil)) != wantDigest {
			t.Errorf("procs=%d: %d values with digest %x, want %d with %s",
				procs, len(res.Values), h.Sum(nil), wantValues, wantDigest)
		}
		if res.NaNs != wantNaNs || res.Failures != wantFailures || res.Cancelled != 0 {
			t.Errorf("procs=%d: NaNs/Failures/Cancelled = %d/%d/%d, want %d/%d/0",
				procs, res.NaNs, res.Failures, res.Cancelled, wantNaNs, wantFailures)
		}
		if errs != wantErrors {
			t.Errorf("procs=%d: errors %q, want %q", procs, errs, wantErrors)
		}
	}
}
