package main

import (
	"encoding/json"
	"os"
	"testing"

	"twohot"
)

// tiny shrinks a workload to a few hundred particles and two steps, with
// checkpoints and analysis (where the workload has them) on every step.
// The force-error ceilings are set for the full sizes; at 8^3 the TreePM
// split alone errs by ~2%, so the tiny runs get a looser one.
func tiny(w workload) workload {
	w.nGrid, w.nSteps, w.setupReps = 8, 2, 2
	w.errCeiling = 0.05
	apply := w.apply
	w.apply = func(cfg *twohot.Config) {
		apply(cfg)
		if cfg.CheckpointEvery > 0 {
			cfg.CheckpointEvery = 1
		}
		if cfg.Analysis.EverySteps > 0 {
			cfg.Analysis.EverySteps = 1
		}
	}
	return w
}

func measure(t *testing.T, w workload, traced bool) report {
	t.Helper()
	rep, err := run(w, options{seed: 7, seconds: 1e-3, outDir: t.TempDir()}, traced)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, traced, err)
	}
	return rep
}

// checkMetrics fails unless rep is correct and reports every metric of defs
// as a number with its unit.
func checkMetrics(t *testing.T, name string, rep report, defs []metric) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(rep.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := rep.Metrics[m.name]
		if !ok || got.Value == nil || got.Unit != m.unit {
			t.Errorf("%s: metric %s = %+v, want a number in %s", name, m.name, got, m.unit)
		}
	}
}

// TestWorkloads runs every workload at a tiny size, untraced and traced
// twice each, and checks that each metric is reported with its unit and
// that force_rms_err and the exact counts repeat for one seed.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			e1, e2 := measure(t, w, false), measure(t, w, false)
			checkMetrics(t, w.name+" end to end", e1, endToEnd)
			if a, b := *e1.Metrics["force_rms_err"].Value, *e2.Metrics["force_rms_err"].Value; a != b || a <= 0 {
				t.Errorf("force_rms_err %v then %v; want one positive value", a, b)
			}
			l1, l2 := measure(t, w, true), measure(t, w, true)
			checkMetrics(t, w.name+" traced", l1, perLayer)
			for _, m := range perLayer {
				if a, b := *l1.Metrics[m.name].Value, *l2.Metrics[m.name].Value; m.exact && a != b {
					t.Errorf("exact count %s: %v then %v", m.name, a, b)
				}
			}
		})
	}
}

// TestCeilingFailsRun checks that exceeding a correctness ceiling counts the
// run as failed and withholds its metrics.
func TestCeilingFailsRun(t *testing.T) {
	for _, mod := range []func(*workload){
		func(w *workload) { w.errCeiling = 0 },
		func(w *workload) { w.momCeiling = 0 },
	} {
		w := tiny(workloads[0])
		mod(&w)
		rep := measure(t, w, false)
		if rep.Correct || rep.Failed != 1 {
			t.Fatalf("correct=%v failed=%d, want a failed run", rep.Correct, rep.Failed)
		}
		for name, v := range rep.Metrics {
			if v.Value != nil {
				t.Errorf("failed run reported %s = %v", name, *v.Value)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics, want %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("metric %d = %+v, want %s %s %s", i, g, m.name, m.unit, m.better)
			}
		}
	}
}
