package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs the gated workloads n times, each run a separate process of
// this binary with its own seed, alternating workloads so that slow drift
// of the machine spreads over all of them. It prints, per workload and
// metric, the median, the quartiles and the quartile spread as a share of
// the median — the figures BENCHMARK.json's bounds are set from.
func runSteady(n int, seconds float64, trace bool, seed0 int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// The workloads BENCHMARK.json gates; parallel is run by hand.
	names := []string{"walk", "fanout"}
	vals := make(map[string]map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		seed := seed0 + int64(i)
		for _, w := range names {
			args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
			if trace {
				args[len(args)-1] = "1"
			}
			out, err := exec.Command(exe, args...).Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: correct=%v, %d of %d failed", w, seed, res.Correct, res.Failed, res.Attempted)
			}
			if vals[w] == nil {
				vals[w] = make(map[string][]float64)
			}
			for m, v := range res.Metrics {
				vals[w][m] = append(vals[w][m], v.Value)
				units[m] = v.Unit
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s seed %d done\n", i+1, n, w, seed)
		}
	}
	fmt.Printf("%-9s %-30s %14s %14s %14s %8s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "unit")
	for _, w := range names {
		metrics := make([]string, 0, len(vals[w]))
		for m := range vals[w] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			q := quartiles(vals[w][m])
			fmt.Printf("%-9s %-30s %14.4f %14.4f %14.4f %7.1f%%  %s\n",
				w, m, q[0], q[1], q[2], 100*(q[2]-q[0])/q[1], units[m])
		}
	}
	return nil
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, the rule the bounds are checked by.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var out [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
