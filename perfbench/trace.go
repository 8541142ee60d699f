package main

import (
	"fmt"
	"time"

	"twohot"
	"twohot/internal/core"
	"twohot/internal/particle"
	"twohot/internal/step"
)

// The traced run times each layer from outside, at the simulation's public
// seams: a ForceSolver wrapper around every solve, a Stepper wrapper around
// every step, observers at step and analysis boundaries, and the Result
// each solve returns.  None of it changes what the program computes; the
// traced run must end byte-identical to the untraced one.

// solveRecord is one force solve as seen by the solver wrapper.
type solveRecord struct {
	span      time.Duration
	res       core.Result // Acc/Pot/Work dropped
	active, n int
	inAdvance bool
}

// tracer collects the spans and counts of one traced Run.
type tracer struct {
	cfg twohot.Config

	solves   []solveRecord
	snapshot *particle.Set // positions of the first solve, for the scaling replay

	advance, advanceSolves time.Duration
	inAdvance              bool

	// lastEvent is the latest step or analysis boundary; a checkpoint due
	// after it ends at the next step, synchronize or the end of the Run.
	lastEvent      time.Time
	ckptPending    bool
	analysis, ckpt time.Duration
	passes         int
}

// options returns fresh traced engine pieces for one set-up repetition;
// the configured solver and stepper are built through the public API and
// wrapped.  Records of earlier repetitions are discarded.
func (t *tracer) options(cfg twohot.Config) ([]twohot.Option, error) {
	*t = tracer{cfg: cfg}
	fs, err := twohot.NewForceSolver(cfg)
	if err != nil {
		return nil, err
	}
	probe, err := twohot.New(cfg)
	if err != nil {
		return nil, err
	}
	return []twohot.Option{
		twohot.WithSolver(tracedSolver{fs, t}),
		twohot.WithStepper(tracedStepper{probe.Stepper(), t}),
		twohot.WithObserver(twohot.ObserverFuncs{Step: t.onStep}),
		twohot.WithAnalysisObserver(twohot.AnalysisFunc(t.onAnalysis)),
	}, nil
}

// closeCheckpoint ends a pending checkpoint span at now.
func (t *tracer) closeCheckpoint(now time.Time) {
	if t.ckptPending {
		t.ckpt += now.Sub(t.lastEvent)
		t.ckptPending = false
	}
}

func (t *tracer) onStep(info twohot.StepInfo) {
	t.lastEvent = time.Now()
	k := t.cfg.CheckpointEvery
	t.ckptPending = k > 0 && info.Step%k == 0 && info.Step < t.cfg.NSteps
}

func (t *tracer) onAnalysis(twohot.AnalysisInfo) {
	now := time.Now()
	t.analysis += now.Sub(t.lastEvent)
	t.passes++
	t.lastEvent = now
}

type tracedSolver struct {
	twohot.ForceSolver
	t *tracer
}

func (s tracedSolver) Accelerations(p *particle.Set) (*core.Result, error) {
	return s.ActiveForces(p, nil, nil)
}

func (s tracedSolver) ActiveForces(p *particle.Set, active, moved []bool) (*core.Result, error) {
	t0 := time.Now()
	res, err := s.ForceSolver.ActiveForces(p, active, moved)
	span := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t := s.t
	if t.snapshot == nil {
		t.snapshot = p.Clone()
	}
	rec := solveRecord{span: span, res: *res, n: p.Len(), active: p.Len(), inAdvance: t.inAdvance}
	rec.res.Acc, rec.res.Pot, rec.res.Work = nil, nil, nil
	if active != nil {
		rec.active = 0
		for _, a := range active {
			if a {
				rec.active++
			}
		}
	}
	if t.inAdvance {
		t.advanceSolves += span
	}
	t.solves = append(t.solves, rec)
	return res, nil
}

type tracedStepper struct {
	twohot.Stepper
	t *tracer
}

func (s tracedStepper) Advance(f step.Forcer, p *particle.Set, clk *step.Clock, dlnA float64) (*core.Result, error) {
	t0 := time.Now()
	s.t.closeCheckpoint(t0)
	s.t.inAdvance = true
	res, err := s.Stepper.Advance(f, p, clk, dlnA)
	s.t.inAdvance = false
	s.t.advance += time.Since(t0)
	return res, err
}

func (s tracedStepper) Synchronize(f step.Forcer, p *particle.Set, clk *step.Clock) (*core.Result, error) {
	s.t.closeCheckpoint(time.Now())
	return s.Stepper.Synchronize(f, p, clk)
}

// measureTraced runs the workload four times, one whole Run each: untraced,
// traced, traced, untraced.  Every Run must end in the state of the first,
// and the two traced Runs must make the same exact counts.  The per-layer
// metrics are the first traced Run's.  trace.overhead_frac compares the
// summed rates of the traced and the untraced Runs; the symmetric order
// cancels a CPU speed that drifts steadily over the four Runs.
func measureTraced(w workload, o options) (measurement, error) {
	var (
		m       measurement
		tracers [2]tracer
		runs    [4]runResult
	)
	for i := range runs {
		var extra func(twohot.Config) ([]twohot.Option, error)
		if i == 1 || i == 2 {
			extra = tracers[i-1].options
		}
		r, err := runOnce(w, o, extra)
		if err != nil {
			return m, err
		}
		if i > 0 && r.failure == "" && r.digest != runs[0].digest {
			r.failure = "final state differs from the first untraced run"
		}
		runs[i] = r
	}
	counts := [2]map[string]float64{tracers[0].layers(), tracers[1].layers()}
	for k := range counts {
		counts[k]["sdf.checkpoint_bytes"] = float64(runs[1+k].ckptSize)
	}
	for _, d := range perLayer {
		a, b := counts[0][d.name], counts[1][d.name]
		if d.exact && a != b && runs[2].failure == "" {
			runs[2].failure = fmt.Sprintf("exact count %s was %v in the first traced run, %v in the second", d.name, a, b)
		}
	}
	for _, r := range runs {
		m.check(w.name, r)
	}
	if m.failed > 0 {
		return m, nil
	}

	v := counts[0]
	var setupNew, setupIC []float64
	for _, r := range runs {
		for _, s := range r.setups {
			setupNew = append(setupNew, s.newDur.Seconds())
			setupIC = append(setupIC, s.icDur.Seconds())
		}
	}
	v["setup.new_s"] = median(setupNew)
	v["ic.generate_s"] = median(setupIC)
	traced := runs[1]
	v["runtime.alloc_mb_per_step"] = float64(traced.allocs) / (1 << 20) / float64(traced.steps)
	v["runtime.gc_count"] = float64(traced.gcs)
	rate := func(r runResult) float64 { return r.particleSteps() / r.wall.Seconds() }
	v["trace.overhead_frac"] = 1 - (rate(runs[1])+rate(runs[2]))/(rate(runs[0])+rate(runs[3]))
	build, walk, err := replayScaling(w.config(o.seed, o.outDir), tracers[0].snapshot)
	if err != nil {
		return m, err
	}
	v["tree.build_speedup_2w"] = build
	v["traverse.speedup_2w"] = walk
	m.values = v
	return m, nil
}

// layers aggregates the traced Run's solve and step records.
func (t *tracer) layers() map[string]float64 {
	var (
		spans                             []float64
		stepSolves, stepActive, stepN     int
		build, sort, walk, longRange      time.Duration
		decomp, comm, imbalance           time.Duration
		fast, reused, p2p, replica, inher int64
		cells, orderSum                   int64
		imbSum                            float64
		imbN                              int
	)
	for _, s := range t.solves {
		r := s.res
		spans = append(spans, s.span.Seconds())
		if s.inAdvance {
			stepSolves++
			stepActive += s.active
			stepN += s.n
		}
		build += r.Timings.TreeBuild
		sort += r.Build.SortTime
		walk += r.Timings.TreeTraversal
		decomp += r.Timings.DomainDecomposition
		comm += r.Timings.Communication
		imbalance += r.Timings.LoadImbalance
		if t.cfg.Solver == twohot.SolverTreePM {
			longRange += s.span - r.Timings.Total
		}
		if r.Build.FastPath {
			fast++
		}
		reused += int64(r.Build.ReusedCells)
		p2p += r.Counters.P2P
		replica += r.Traversal.ReplicaWalks
		inher += r.Traversal.InheritedItems
		for order, c := range r.Counters.CellByOrder {
			cells += c
			orderSum += int64(order) * c
		}
		if r.Traversal.ShardImbalance > 0 {
			imbSum += r.Traversal.ShardImbalance
			imbN++
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := float64(len(t.solves))
	return map[string]float64{
		"step.advance_s":              t.advance.Seconds(),
		"step.self_s":                 (t.advance - t.advanceSolves).Seconds(),
		"step.solves":                 float64(stepSolves),
		"step.active_frac":            ratio(float64(stepActive), float64(stepN)),
		"solve.s_p50":                 median(spans),
		"solve.count":                 n,
		"tree.build_s":                build.Seconds(),
		"tree.sort_s":                 sort.Seconds(),
		"tree.fastpath_frac":          ratio(float64(fast), n),
		"tree.reused_cells":           float64(reused),
		"traverse.walk_s":             walk.Seconds(),
		"traverse.p2p":                float64(p2p),
		"traverse.replica_walks":      float64(replica),
		"traverse.inherited_items":    float64(inher),
		"traverse.shard_imbalance":    ratio(imbSum, float64(imbN)),
		"traverse.ns_per_interaction": ratio(float64(walk.Nanoseconds()), float64(p2p+cells)),
		"multipole.cell_evals":        float64(cells),
		"multipole.mean_order":        ratio(float64(orderSum), float64(cells)),
		"pm.longrange_s":              longRange.Seconds(),
		"domain.decompose_s":          decomp.Seconds(),
		"comm.wait_s":                 comm.Seconds(),
		"core.load_imbalance_s":       imbalance.Seconds(),
		"analysis.pass_s":             t.analysis.Seconds(),
		"analysis.passes":             float64(t.passes),
		"sdf.checkpoint_s":            t.ckpt.Seconds(),
	}
}

// replayScaling solves the first-step snapshot with the single-process
// solver of the workload at 1 and 2 workers and returns the 2-worker
// speed-ups of the tree build and of the walk.
func replayScaling(cfg twohot.Config, snap *particle.Set) (build, walk float64, err error) {
	var timings [2]core.Timings
	for i, workers := range []int{1, 2} {
		c := cfg
		c.Workers = workers
		c.Ranks, c.Transport = 0, ""
		fs, err := twohot.NewForceSolver(c)
		if err != nil {
			return 0, 0, err
		}
		res, err := fs.Accelerations(snap.Clone())
		if err != nil {
			return 0, 0, fmt.Errorf("scaling replay: %w", err)
		}
		timings[i] = res.Timings
	}
	return timings[0].TreeBuild.Seconds() / timings[1].TreeBuild.Seconds(),
		timings[0].TreeTraversal.Seconds() / timings[1].TreeTraversal.Seconds(), nil
}
