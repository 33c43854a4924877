package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/jobspec"
)

// deck is the paper's Fig. 3 current reference as a netlist: the circuit
// every service job simulates.
const deck = `* fig. 3 current reference, 180nm
.tech 180nm
VSUP rail 0 DC 1.8
RREF rail gate 30k
M1 gate gate 0 0 NMOS W=2u L=720n
M2 out gate 0 0 NMOS W=2u L=720n
RLOAD rail out 10k
CFILT gate 0 20p
.end
`

// Yield window on the output node, about ±1% around its nominal 1.467 V
// (σ ≈ 9 mV under mismatch): about 90% of dies pass at time zero, and
// aging drifts the output up and the yield down.
const specLo, specHi = 1.45, 1.48

// Seed streams: every input a run generates derives from (--seed,
// stream, index), so one seed reproduces a run and another gives fresh
// inputs the engine has never seen.
const (
	streamHistory = 1 + iota
	streamWarmup
	streamJobs    // + phase for the second phase of a traced run
	streamRepeats = streamJobs + 8
	streamLifetime
)

// deriveSeed maps (seed, stream, client, k) to a nonzero 53-bit spec
// seed with the SplitMix64 finaliser.
func deriveSeed(seed, stream, client, k uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream<<48 + client<<40 + k
	for i := 0; i < 2; i++ {
		z += 0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	if z &= 1<<53 - 1; z == 0 {
		z = 1
	}
	return z
}

// mcSpec is the defaults-applied spec of one Monte-Carlo job — exactly
// what the server executes for the JSON body of mcBody.
func mcSpec(trials int, seed uint64) *jobspec.Spec {
	lo, hi := specLo, specHi
	s := &jobspec.Spec{
		Analysis: jobspec.KindMC, Netlist: deck, Seed: seed,
		MC: &jobspec.MCParams{Trials: trials, Node: "out", Lo: &lo, Hi: &hi},
	}
	s.ApplyDefaults()
	return s
}

// mcBody is the sparse JSON document a client submits for mcSpec.
func mcBody(trials int, seed uint64) []byte {
	b, err := json.Marshal(map[string]any{
		"analysis": "mc", "netlist": deck, "seed": seed,
		"mc": map[string]any{"trials": trials, "node": "out", "lo": specLo, "hi": specHi},
	})
	if err != nil {
		panic(err) // static types; cannot fail
	}
	return b
}

// canonSum hashes an encoded jobspec.Result in compact form with every
// "elapsed" wall-time value blanked: the only bytes two executions of
// the same spec may legitimately disagree on.
func canonSum(raw []byte) ([32]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return [32]byte{}, fmt.Errorf("compacting result: %w", err)
	}
	return sha256.Sum256(blankElapsed(buf.Bytes())), nil
}

// blankElapsed empties the string value of every "elapsed" key of a
// compact JSON document.
func blankElapsed(b []byte) []byte {
	key := []byte(`"elapsed":"`)
	out := make([]byte, 0, len(b))
	for {
		i := bytes.Index(b, key)
		if i < 0 {
			return append(out, b...)
		}
		out = append(out, b[:i+len(key)]...)
		b = b[i+len(key):]
		if j := bytes.IndexByte(b, '"'); j >= 0 {
			b = b[j:]
		}
	}
}

// inprocSum executes spec in this process and returns the canonical hash
// of its encoded result plus the result itself.
func inprocSum(spec *jobspec.Spec) ([32]byte, *jobspec.Result, error) {
	res, err := jobspec.Execute(bgCtx, spec)
	if err != nil {
		return [32]byte{}, nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return [32]byte{}, nil, err
	}
	sum, err := canonSum(b)
	return sum, res, err
}
