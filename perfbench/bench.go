package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"twohot"
	"twohot/internal/core"
	"twohot/internal/particle"
	"twohot/internal/vec"
)

// options are the command-line inputs of one benchmark run.
type options struct {
	seed    int64
	seconds float64
	outDir  string // per-Run output directories are created under it
}

// setupTime is one New + GenerateICs repetition.
type setupTime struct{ newDur, icDur time.Duration }

func (s setupTime) total() time.Duration { return s.newDur + s.icDur }

// runResult is one set-up plus a whole Simulation.Run, checked.
type runResult struct {
	n        int // particles
	setups   []setupTime
	steps    int
	wall     time.Duration // Run only
	peakHeap uint64        // live heap bytes, sampled at every step and solve
	allocs   uint64        // heap bytes allocated during Run
	gcs      uint64        // GC cycles during Run
	digest   [32]byte      // final particle state, by ID
	ckptSize int64         // bytes of the last checkpoint written, 0 for none
	momDrift float64       // net momentum change / summed momentum magnitudes
	failure  string        // first failed check; "" when all passed
}

func (r runResult) particleSteps() float64 { return float64(r.n * r.steps) }

// runOnce sets the workload up w.setupReps times, runs the last set-up's
// simulation to completion, and checks the final state.  extra, when
// non-nil, supplies fresh construction options for every repetition; it is
// called outside the timed window.
func runOnce(w workload, o options, extra func(cfg twohot.Config) ([]twohot.Option, error)) (runResult, error) {
	dir, err := os.MkdirTemp(o.outDir, w.name+"-")
	if err != nil {
		return runResult{}, err
	}
	defer os.RemoveAll(dir)
	cfg := w.config(o.seed, dir)
	var r runResult
	var sim *twohot.Simulation
	for i := 0; i < w.setupReps; i++ {
		var opts []twohot.Option
		if extra != nil {
			if opts, err = extra(cfg); err != nil {
				return r, err
			}
		}
		sim = nil
		runtime.GC()
		t0 := time.Now()
		if sim, err = twohot.New(cfg, opts...); err != nil {
			return r, err
		}
		t1 := time.Now()
		if err := sim.GenerateICs(); err != nil {
			return r, err
		}
		r.setups = append(r.setups, setupTime{t1.Sub(t0), time.Since(t1)})
	}
	r.n = sim.NumParticles()
	mom0 := netMomentum(sim.P)

	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	sampleHeap := func() {
		metrics.Read(samples[:1])
		r.peakHeap = max(r.peakHeap, samples[0].Value.Uint64())
	}
	sim.AddObserver(twohot.ObserverFuncs{
		Step:  func(twohot.StepInfo) { sampleHeap() },
		Force: func(*core.Result) { sampleHeap() },
	})
	sampleHeap()
	metrics.Read(samples)
	alloc0, gc0 := samples[1].Value.Uint64(), samples[2].Value.Uint64()

	t := time.Now()
	err = sim.Run()
	r.wall = time.Since(t)
	if err != nil {
		return r, fmt.Errorf("%s: run: %w", w.name, err)
	}
	metrics.Read(samples)
	r.allocs = samples[1].Value.Uint64() - alloc0
	r.gcs = samples[2].Value.Uint64() - gc0
	r.steps = sim.StepCount
	r.digest = digest(sim.P)
	if fi, err := os.Stat(sim.CheckpointPath()); err == nil {
		r.ckptSize = fi.Size()
	}
	r.momDrift, r.failure = checkState(sim.P, mom0, w.momCeiling)
	return r, nil
}

// checkState verifies that the final positions and momenta are finite and
// that the net momentum moved by less than ceiling times the summed
// momentum magnitudes.
func checkState(p *particle.Set, mom0 vec.V3, ceiling float64) (drift float64, failure string) {
	var scale float64
	for i := range p.Pos {
		if !p.Pos[i].IsFinite() || !p.Mom[i].IsFinite() {
			return 0, fmt.Sprintf("particle %d has a non-finite position or momentum", p.ID[i])
		}
		scale += p.Mass[i] * p.Mom[i].Norm()
	}
	drift = netMomentum(p).Sub(mom0).Norm() / scale
	if !(drift <= ceiling) {
		return drift, fmt.Sprintf("net momentum changed by %.3g of the total, ceiling %.3g", drift, ceiling)
	}
	return drift, ""
}

func netMomentum(p *particle.Set) vec.V3 {
	var s vec.V3
	for i, m := range p.Mom {
		s = s.Add(m.Scale(p.Mass[i]))
	}
	return s
}

// digest hashes the particle state (ID, position, momentum) in ID order, so
// runs that distribute particles differently still compare.
func digest(p *particle.Set) [32]byte {
	idx := make([]int, p.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.ID[idx[a]] < p.ID[idx[b]] })
	h := sha256.New()
	var buf [56]byte
	for _, i := range idx {
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.ID[i]))
		for k := 0; k < 3; k++ {
			binary.LittleEndian.PutUint64(buf[8+8*k:], math.Float64bits(p.Pos[i][k]))
			binary.LittleEndian.PutUint64(buf[32+8*k:], math.Float64bits(p.Mom[i][k]))
		}
		h.Write(buf[:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// refErrTol is the reference solve's tolerance: far below any workload's.
const refErrTol = 1e-8

// refSinks is the number of sinks the reference solve evaluates, every
// (N/refSinks)-th particle by ID.
const refSinks = 512

// probeSeed is the seed of the force probe's state.  It is the benchmark's
// own constant, not the program's default seed, so that force_rms_err
// moves only when the solver does.
const probeSeed = 12345

// forceError measures the force accuracy of the workload's configured
// solver.  The probe state is the initial conditions of one fixed seed
// (probeSeed), generated at the workload's final redshift so that it is as
// clustered as the end of a Run.  The seed is fixed because the
// error of a 16^3 box varies 20% and more between realizations, far more
// than any change worth catching; a fixed probe repeats exactly.
//
// The error is sqrt(Σ|a-a_ref|² / Σ|a_ref|²) over a fixed sample of sinks,
// where a_ref is a tight-tolerance tree solve of the same positions.  Sinks
// are chosen by particle ID, so a set the solver regrouped across ranks
// samples the same particles.  The ratio of sums is used rather than the
// mean of per-particle ratios, which a few particles with a near-zero
// acceleration dominate.
func forceError(cfg twohot.Config) (float64, error) {
	probe := cfg
	probe.Seed = probeSeed
	probe.ZInit, probe.ZFinal = cfg.ZFinal, 0
	probe.CheckpointEvery = 0
	probe.Analysis = twohot.AnalysisConfig{}
	sim, err := twohot.New(probe)
	if err != nil {
		return 0, err
	}
	if err := sim.GenerateICs(); err != nil {
		return 0, err
	}
	res, err := sim.Solver().Accelerations(sim.P)
	if err != nil {
		return 0, fmt.Errorf("probe solve: %w", err)
	}
	ref := probe
	ref.Solver = twohot.SolverTree
	ref.Ranks, ref.Transport = 0, ""
	ref.ErrTol = refErrTol
	ref.Order = 8
	ref.Workers = 2
	fs, err := twohot.NewForceSolver(ref)
	if err != nil {
		return 0, err
	}
	p := sim.P
	stride := int64(max(1, p.Len()/refSinks))
	sample := make([]bool, p.Len())
	for i, id := range p.ID {
		sample[i] = id%stride == 0
	}
	exact, err := fs.ActiveForces(p.Clone(), sample, nil)
	if err != nil {
		return 0, fmt.Errorf("reference solve: %w", err)
	}
	var diff, norm float64
	for i, in := range sample {
		if in {
			diff += res.Acc[i].Sub(exact.Acc[i]).Norm2()
			norm += exact.Acc[i].Norm2()
		}
	}
	return math.Sqrt(diff / norm), nil
}

// measurement is what one benchmark invocation measured and checked.
type measurement struct {
	values            map[string]float64
	attempted, failed int     // Runs and probes made, those that failed a check
	momDrift          float64 // largest momentum drift of the Runs
}

// check counts r as attempted, and as failed when a check failed.
func (m *measurement) check(name string, r runResult) {
	m.attempted++
	m.momDrift = max(m.momDrift, r.momDrift)
	if r.failure != "" {
		m.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s run %d failed: %s\n", name, m.attempted, r.failure)
	}
}

// measureEndToEnd runs whole Simulation.Runs of the workload back to back,
// each from a fresh set-up, until the time budget is spent (at least one),
// then probes the force accuracy, and reports the end-to-end metrics.
// Every Run of one seed must end in the same state as the first.
func measureEndToEnd(w workload, o options) (measurement, error) {
	var (
		m      measurement
		first  [32]byte
		setups []float64
		pSteps float64
		wall   time.Duration
		peak   uint64
		// spent is the set-up and Run time the budget counts; another Run
		// starts while half of the last one's duration still fits.
		spent, last time.Duration
		budget      = time.Duration(o.seconds * float64(time.Second))
	)
	for m.failed == 0 && (m.attempted == 0 || spent+last/2 < budget) {
		t := time.Now()
		r, err := runOnce(w, o, nil)
		last = time.Since(t)
		spent += last
		if err != nil {
			return m, err
		}
		if m.attempted == 0 {
			first = r.digest
		} else if r.failure == "" && r.digest != first {
			r.failure = "final state differs from the first run of the same seed"
		}
		m.check(w.name, r)
		for _, s := range r.setups {
			setups = append(setups, s.total().Seconds())
		}
		pSteps += r.particleSteps()
		wall += r.wall
		peak = max(peak, r.peakHeap)
	}
	forceErr, err := forceError(w.config(o.seed, ""))
	if err != nil {
		return m, err
	}
	var probe runResult
	if !(forceErr <= w.errCeiling) {
		probe.failure = fmt.Sprintf("force_rms_err %.3g exceeds the ceiling %.3g", forceErr, w.errCeiling)
	}
	m.check(w.name+" force probe", probe)
	m.values = map[string]float64{
		"particle_steps_per_s": pSteps / wall.Seconds(),
		"setup_s":              median(setups),
		"peak_heap_mb":         float64(peak) / (1 << 20),
		"force_rms_err":        forceErr,
	}
	return m, nil
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
