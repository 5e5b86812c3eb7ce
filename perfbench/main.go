// Command perfbench is the repository's benchmark: time-to-target
// Newton-ADMM training and open-loop serving through the scatter-gather
// router, with a separate traced run that attributes time to modules by
// wrapping the program's public seams. See README.md for the workloads
// and metrics.
//
//	bash perfbench/run.sh --workload train-dense --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --repeat N the command
// instead runs the workload N times in child processes (seeds seed ..
// seed+N-1) and prints each metric's median, quartiles and spread.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runResult is what one run measured.
type runResult struct {
	// attempted counts operations, failed those with a wrong output or an
	// error, ok those that also met every limit (ok_ratio's numerator).
	attempted, failed, ok int
	// mismatch reports an output check that does not depend on one
	// operation (a traced run that diverged from the untraced one).
	mismatch string
	metrics  map[string]float64
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "workload seed: the inputs are generated from it")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		repeat  = flag.Int("repeat", 0, "steadiness mode: run the workload this many times in child processes")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := steadiness(w.name, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	printFingerprint(w.name, *seed, *seconds, *trace)
	window := time.Duration(*seconds * float64(time.Second))
	var res *runResult
	var err error
	if w.train != nil {
		res, err = runTrain(*w.train, *seed, window, *trace == 1)
	} else {
		res, err = runServe(*w.serve, *seed, window, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if res.mismatch != "" {
		fmt.Println("check failed:", res.mismatch)
	}
	out := output{
		Correct:   res.failed == 0 && res.mismatch == "",
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   fill(defs, res.metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printFingerprint records the host and the run's parameters ahead of
// the result line.
func printFingerprint(name string, seed int64, seconds float64, trace int) {
	host := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	line, _ := json.Marshal(map[string]any{
		"host": host, "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
	})
	fmt.Println(string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
