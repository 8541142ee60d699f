// Command perfbench is the repository's end-to-end benchmark: it runs whole
// Simulation.Runs of one named workload, checks that they are correct, and
// prints one JSON line of metrics.  With -trace 0 it reports the
// end-to-end metrics; with -trace 1 it runs the workload untraced and
// traced and reports per-layer metrics.  See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tree --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the initial conditions")
	seconds := flag.Float64("seconds", 20, "time budget of the measured runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	outDir := flag.String("outdir", ".", "directory under which each run writes its files")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and a positive -seconds\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(w, options{seed: *seed, seconds: *seconds, outDir: *outDir}, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run measures the workload and prints the environment line that precedes
// the report.
func run(w workload, o options, traced bool) (report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return report{}, err
	}
	cfg := w.config(o.seed, "")
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	env := map[string]any{
		"workload": w.name, "trace": traced, "seed": o.seed, "seconds": o.seconds,
		"n": cfg.NGrid * cfg.NGrid * cfg.NGrid, "workers": cfg.Workers, "ranks": max(cfg.Ranks, 1),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
	measure, defs := measureEndToEnd, endToEnd
	if traced {
		measure, defs = measureTraced, perLayer
	}
	m, err := measure(w, o)
	if err != nil {
		return report{}, err
	}
	checks := map[string]any{"momentum_drift": m.momDrift, "momentum_ceiling": w.momCeiling}
	if !traced {
		checks["force_rms_err_ceiling"] = w.errCeiling
	}
	line, _ := json.Marshal(map[string]any{"env": env, "checks": checks})
	fmt.Println(string(line))
	return newReport(defs, m.values, m.attempted, m.failed), nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
