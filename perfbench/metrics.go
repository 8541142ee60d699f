package main

// metric is one reported number: its name and unit as BENCHMARK.json lists
// them, and which way is better.
type metric struct {
	name, unit, better string
	// exact marks counts the program makes deterministically: they repeat
	// bit for bit across runs of one seed.
	exact bool
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metric{
	{name: "particle_steps_per_s", unit: "1/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
	{name: "force_rms_err", unit: "1", better: "lower"},
}

// perLayer are the metrics of a traced run (--trace 1).  Layers a workload
// does not exercise report 0 (pm on tree, domain/comm off ranks2, ...).
// README.md records the end-to-end metric each is meant to move.
var perLayer = []metric{
	{"setup.new_s", "s", "lower", false},
	{"ic.generate_s", "s", "lower", false},
	{"step.advance_s", "s", "lower", false},
	{"step.self_s", "s", "lower", false},
	{"step.solves", "count", "lower", true},
	{"step.active_frac", "1", "lower", true},
	{"solve.s_p50", "s", "lower", false},
	{"solve.count", "count", "lower", true},
	{"tree.build_s", "s", "lower", false},
	{"tree.sort_s", "s", "lower", false},
	{"tree.fastpath_frac", "1", "higher", true},
	{"tree.reused_cells", "count", "higher", true},
	{"traverse.walk_s", "s", "lower", false},
	{"traverse.p2p", "count", "lower", true},
	{"traverse.replica_walks", "count", "lower", true},
	{"traverse.inherited_items", "count", "higher", true},
	{"traverse.shard_imbalance", "1", "lower", false},
	{"traverse.ns_per_interaction", "ns", "lower", false},
	{"multipole.cell_evals", "count", "lower", true},
	{"multipole.mean_order", "1", "lower", true},
	{"pm.longrange_s", "s", "lower", false},
	{"domain.decompose_s", "s", "lower", false},
	{"comm.wait_s", "s", "lower", false},
	{"core.load_imbalance_s", "s", "lower", false},
	{"analysis.pass_s", "s", "lower", false},
	{"analysis.passes", "count", "lower", true},
	{"sdf.checkpoint_s", "s", "lower", false},
	{"sdf.checkpoint_bytes", "bytes", "lower", true},
	{"runtime.alloc_mb_per_step", "MB", "lower", false},
	{"runtime.gc_count", "count", "lower", false},
	{"tree.build_speedup_2w", "1", "higher", false},
	{"traverse.speedup_2w", "1", "higher", false},
	{"trace.overhead_frac", "1", "lower", false},
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue holds a measured number, or nil when a failed run withholds
// it.
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// newReport fills every metric of defs from values; a failed run reports
// none of them as numbers.
func newReport(defs []metric, values map[string]float64, attempted, failed int) report {
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		mv := metricValue{Unit: m.unit}
		if v, ok := values[m.name]; ok && failed == 0 {
			mv.Value = &v
		}
		r.Metrics[m.name] = mv
	}
	return r
}
