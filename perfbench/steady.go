package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload n times, each in its own child process
// with the next seed (as the runs a regression check compares), and
// prints each metric's median, quartiles and spread: the inter-quartile
// distance as a share of the median.
func steadiness(name string, seed int64, seconds float64, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failedRuns := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(&stdout, os.Stderr) // the run's log, for diagnosis
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var out output
		if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		if !out.Correct {
			failedRuns++
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d", s, out.Correct, out.Attempted, out.Failed)
		keys := make([]string, 0, len(out.Metrics))
		for k, v := range out.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
			keys = append(keys, k)
		}
		if trace == 0 {
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf(" %s=%.4g", k, out.Metrics[k].Value)
			}
		}
		fmt.Println()
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %12s %12s %12s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	summary := map[string]map[string]float64{}
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %8.4f  %s\n", k, q1, q2, q3, spread, units[k])
		summary[k] = map[string]float64{"q1": q1, "median": q2, "q3": q3, "spread": spread}
	}
	line, err := json.Marshal(map[string]any{"workload": name, "runs": n, "incorrect_runs": failedRuns, "metrics": summary})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failedRuns > 0 {
		return fmt.Errorf("%d of %d runs failed their output checks", failedRuns, n)
	}
	return nil
}
