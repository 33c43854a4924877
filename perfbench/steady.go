package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steady runs the benchmark several times, each in a fresh process with
// its own seed, and prints each end-to-end metric's median, quartiles
// and spread against a third of its bound — the steadiness a benchmark
// change must show before it is accepted.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	first := fs.Uint64("first-seed", 1, "seed of the first run; later runs count up")
	seconds := fs.Int("seconds", runSeconds, "measured seconds per run")
	fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	bad := 0
	for i := 0; i < *runs; i++ {
		seed := *first + uint64(i)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		fmt.Printf("seed %d:", seed)
		if !res.Correct {
			bad++
			fmt.Printf(" FAILED its checks\n%s", linesWith(out, "attempts ", "problem "))
		}
		for _, d := range endToEnd {
			v := res.Metrics[d.Name].Value
			vals[d.Name] = append(vals[d.Name], v)
			fmt.Printf(" %s=%.6g", d.Name, v)
		}
		fmt.Println()
	}
	for _, d := range endToEnd {
		q1, q2, q3 := quartiles(vals[d.Name])
		s := spread(vals[d.Name])
		verdict := "ok"
		if s > *d.Bound/3 {
			verdict = "NOISY"
		}
		fmt.Printf("%-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %.2f %s\n",
			d.Name, q2, q1, q3, s, *d.Bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d runs failed their checks", bad, *runs)
	}
	return nil
}

// linesWith returns the lines of out that start with one of prefixes.
func linesWith(out []byte, prefixes ...string) string {
	var b strings.Builder
	for _, l := range strings.Split(string(out), "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(l, p) {
				b.WriteString("  " + l + "\n")
			}
		}
	}
	return b.String()
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}
