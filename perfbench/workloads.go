package main

import (
	"math"

	"twohot"
)

// workload is one fixed simulation the benchmark runs end to end.  Its
// Config is DefaultConfig with the fields below changed; the seed is the
// only input that varies between runs.
type workload struct {
	name string
	// why is the one-line rationale recorded in BENCHMARK.json.
	why string

	nGrid  int     // particles per dimension
	nSteps int     // steps of one Simulation.Run
	dlnA   float64 // step size in ln(a); z_final follows from z_init
	// setupReps is the number of New+GenerateICs repetitions per Run whose
	// median is setup_s; the last one's state is the one that runs.
	setupReps int

	// Correctness ceilings, set from measurement (perfbench/README.md):
	// errCeiling bounds force_rms_err, momCeiling the net momentum change
	// of a Run relative to the summed momentum magnitudes.
	errCeiling float64
	momCeiling float64

	apply func(cfg *twohot.Config)
}

// workloads are kept few and long: this machine's CPU speed drifts, so
// each Run steps for seconds rather than milliseconds, and no workload
// runs more compute goroutines than there are cores.
var workloads = []workload{
	{
		name:       "tree",
		why:        "the paper's method: periodic tree solve, global leapfrog, 2 workers; the walk (multipole + P2P) is ~99% of a step",
		nGrid:      16,
		nSteps:     5,
		dlnA:       0.2,
		setupReps:  21,
		errCeiling: 6e-3,
		momCeiling: 2e-3,
		apply:      func(cfg *twohot.Config) {},
	},
	{
		name:       "treepm",
		why:        "mesh long range + tree short range, in-situ analysis and checkpoints; under 0.1% of its interactions are multipole, so it bypasses multipole changes",
		nGrid:      32,
		nSteps:     20,
		dlnA:       0.1,
		setupReps:  15,
		errCeiling: 3e-2,
		momCeiling: 1e-5,
		apply: func(cfg *twohot.Config) {
			cfg.Solver = twohot.SolverTreePM
			cfg.PMGrid = 64
			cfg.CheckpointEvery = 5
			cfg.Analysis = twohot.AnalysisConfig{EverySteps: 5}
		},
	},
	{
		name:       "block",
		why:        "3-rung block steps with a minority on finer rungs: the only workload with active-subset walks and dirty-subtree reuse",
		nGrid:      16,
		nSteps:     3,
		dlnA:       0.2,
		setupReps:  21,
		errCeiling: 1e-2,
		momCeiling: 2e-3,
		apply: func(cfg *twohot.Config) {
			cfg.BlockSteps = 3
			cfg.RungDisplacementFrac = 0.0125
		},
	},
	{
		name:       "ranks2",
		why:        "the tree problem on 2 in-process ranks with 1 worker each: the only workload through domain, comm and the distributed core",
		nGrid:      16,
		nSteps:     5,
		dlnA:       0.2,
		setupReps:  21,
		errCeiling: 6e-3,
		momCeiling: 2e-3,
		apply: func(cfg *twohot.Config) {
			cfg.Ranks = 2
			cfg.Transport = "chan"
			cfg.Workers = 1
		},
	},
}

// config returns the workload's simulation configuration for a seed,
// writing any files under outDir.
func (w workload) config(seed int64, outDir string) twohot.Config {
	cfg := twohot.DefaultConfig()
	cfg.Name = w.name
	cfg.Seed = seed
	cfg.NGrid = w.nGrid
	cfg.NSteps = w.nSteps
	cfg.ZFinal = (1+cfg.ZInit)*math.Exp(-w.dlnA*float64(w.nSteps)) - 1
	cfg.Workers = 2
	cfg.OutputDir = outDir
	w.apply(&cfg)
	return cfg
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
