package main

// Self-test of the benchmark at tiny size: run from this directory with
//
//	go test
//
// It checks that BENCHMARK.json and the metric map agree, that every
// metric is printed with its unit, that the deterministic counters repeat
// exactly across runs, and that the output gate trips on a perturbed pin.

import (
	"encoding/json"
	"os"
	"testing"

	"rhea/internal/rhea"
	"rhea/internal/scenario"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricMapMatchesBenchmarkFile(t *testing.T) {
	f := readBenchFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(f.EndToEnd), len(endToEnd), len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		if g := endToEnd[i]; m.Name != g.name || m.Unit != g.unit || m.Better != g.better {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v here", i, m, g)
		}
	}
	for i, m := range f.PerLayer {
		if g := perLayer[i]; m.Name != g.name || m.Unit != g.unit || m.Better != g.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v here", i, m, g)
		}
		for _, w := range append(append([]string(nil), perLayer[i].measured...), perLayer[i].noChange...) {
			if !isWorkload(w) {
				t.Errorf("per-layer %s names unknown workload %q", m.Name, w)
			}
		}
	}
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}

// tiny shrinks a simulation workload to a few hundred elements.
func tiny(w simWorkload, base, maxLevel uint8, budget int64) simWorkload {
	full := w.config
	w.budget = budget
	w.config = func(seed int64) rhea.Config {
		cfg := full(seed)
		cfg.BaseLevel, cfg.MinLevel, cfg.MaxLevel, cfg.InitAdapt, cfg.TargetElems = base, 1, maxLevel, 1, budget
		return cfg
	}
	return w
}

var (
	tinyBunge = tiny(bungeGMG, 1, 2, 200)
	tinyBox   = tiny(boxAMG2R, 2, 3, 150)
)

// checkPrinted checks that both result lines carry every metric with its
// unit, and that a layer metric reads 0 on a workload that does not run
// its layer.
func checkPrinted(t *testing.T, name string, out *outcome) {
	t.Helper()
	for _, trace := range []bool{false, true} {
		res, err := buildResult(out, trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: gate failed: %v", name, out.failures)
		}
		for _, m := range metricsFor(trace) {
			v := res.Metrics[m.name]
			if v.Unit != m.unit {
				t.Errorf("%s: metric %s printed with unit %q, want %q", name, m.name, v.Unit, m.unit)
			}
			if trace && !m.applies(name) && v.Value != 0 {
				t.Errorf("%s: layer metric %s = %v on a workload that does not run it", name, m.name, v.Value)
			}
		}
	}
}

func TestSimWorkloadsTiny(t *testing.T) {
	for _, w := range []simWorkload{tinyBunge, tinyBox} {
		var runs []*outcome
		for i := 0; i < 2; i++ {
			out, err := runSim(w, runOpts{seed: 3, seconds: 0.01, trace: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			checkPrinted(t, w.name, out)
			runs = append(runs, out)
		}
		a, b := runs[0], runs[1]
		if a.e2e["minres_iters"] != b.e2e["minres_iters"] {
			t.Errorf("%s: minres_iters %v then %v", w.name, a.e2e["minres_iters"], b.e2e["minres_iters"])
		}
		for _, k := range []string{"comm_msgs", "comm_mb", "coll_rounds"} {
			if a.layer[k] != b.layer[k] {
				t.Errorf("%s: %s %v then %v", w.name, k, a.layer[k], b.layer[k])
			}
		}
		if w.ranks > 1 && a.layer["comm_msgs"] == 0 {
			t.Errorf("%s: no transport counted at %d ranks", w.name, w.ranks)
		}
	}
}

// withPin swaps in a pin for the duration of the test.
func withPin(t *testing.T, name string, p pin) {
	old, had := pins[name]
	pins[name] = p
	t.Cleanup(func() {
		if had {
			pins[name] = old
		} else {
			delete(pins, name)
		}
	})
}

func TestSimGateTripsOnPerturbedPin(t *testing.T) {
	w := tinyBox
	cfg := w.config(0)
	rep, err := simRepetition(w, cfg, repTimed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := pin{elements: rep.elements, nu: rep.nu, vrms: rep.vrms}
	for _, c := range []struct {
		name string
		p    pin
		fail bool
	}{
		{"exact", exact, false},
		{"nu", pin{exact.elements, exact.nu * (1 + 1e-8), exact.vrms, 0}, true},
		{"vrms", pin{exact.elements, exact.nu, exact.vrms * (1 - 1e-8), 0}, true},
		{"elements", pin{exact.elements + 1, exact.nu, exact.vrms, 0}, true},
	} {
		withPin(t, w.name, c.p)
		out := newOutcome()
		checkSimRep(w, 0, rep, nil, out)
		if got := out.failed == 1; got != c.fail {
			t.Errorf("pin %s: failed=%d, want failure %v (%v)", c.name, out.failed, c.fail, out.failures)
		}
	}
	// Other seeds check invariants only: a non-converged solve still fails.
	bad := rep
	bad.converged = false
	out := newOutcome()
	checkSimRep(w, 5, bad, nil, out)
	if out.failed != 1 {
		t.Errorf("non-converged solve passed the gate")
	}
}

func TestServiceWorkloadTiny(t *testing.T) {
	out, err := runServiceResume(runOpts{seed: 0, seconds: 0.01, trace: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	checkPrinted(t, "service-resume", out)
	if out.attempted < 20 {
		t.Errorf("%d jobs; the latency medians need at least 20", out.attempted)
	}

	p := pins["service-resume"]
	good := jobRun{
		view:  scenario.JobView{ID: 1, State: scenario.StateDone},
		diags: []scenario.CycleDiag{{Cycle: 1, Nu: 1}, {Cycle: 2, Nu: p.nu}, {Cycle: 3, Nu: p.resumeNu}},
	}
	for _, c := range []struct {
		name   string
		mutate func(*jobRun)
		fail   bool
	}{
		{"exact", func(*jobRun) {}, false},
		{"nu", func(j *jobRun) { j.diags[1].Nu *= 1 + 1e-8 }, true},
		{"resume nu", func(j *jobRun) { j.diags[2].Nu *= 1 - 1e-8 }, true},
		{"retried", func(j *jobRun) { j.view.Retries = 1 }, true},
		{"failed", func(j *jobRun) { j.view.State = scenario.StateFailed }, true},
	} {
		j := good
		j.diags = append([]scenario.CycleDiag(nil), good.diags...)
		c.mutate(&j)
		out := newOutcome()
		checkJob(0, j, out)
		if got := out.failed == 1; got != c.fail {
			t.Errorf("job %s: failed=%d, want failure %v", c.name, out.failed, c.fail)
		}
	}
}
