// Command perfbench is the repository benchmark. It runs one workload
// for a fixed wall-clock window and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics:
//
//	go run . --workload bunge-gmg --seed 0 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (set-up time, time
// to solution, CPU, allocation, peak heap, MINRES iterations). With
// --trace 1 the same loop runs with benchmark-side spans and is followed
// by layer probes on the run's final mesh; the metrics are then the
// per-layer ones and the spans are written to a JSON file. The line
// before the result carries host and run metadata.
//
// The benchmark drives the library from outside only: it times its
// calls into rhea, stokes, krylov, gmg, matfree, la, mesh, sim, ckpt and
// scenario, and changes none of them. Workload seed 0 reproduces the
// pinned outputs in pins.go; other seeds perturb the generated inputs,
// and the output gate then checks invariants only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workload is one benchmark input set; BENCHMARK.json records why each
// was chosen.
type workload struct {
	name string
	run  func(o runOpts) (*outcome, error)
}

var workloads = []workload{
	{"bunge-gmg", runBungeGMG},
	{"box-amg-2r", runBoxAMG2R},
	{"service-resume", runServiceResume},
}

// runOpts carries the command line into a workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // scratch space inside the checkout
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64 // end-to-end metric -> value
	layer             map[string]float64 // per-layer metric -> value (trace runs)
	info              map[string]any     // run metadata beyond the host's
	spans             *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 0, "workload seed (0 reproduces the pinned outputs)")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced pass with layer probes and per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	outDir := os.Getenv("CARGO_TARGET_DIR")
	if outDir == "" {
		outDir = ".bench_build"
	}
	outDir = filepath.Join(outDir, "perfbench")
	if err := os.MkdirAll(outDir, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir}
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	meta := hostMeta()
	for k, v := range out.info {
		meta[k] = v
	}
	meta["workload"] = w.name
	meta["seed"] = *seed
	meta["trace"] = *trace
	if len(out.failures) > 0 {
		meta["failures"] = out.failures
	}
	if out.spans != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		meta["span_file"] = path
		meta["spans"] = len(out.spans.spans)
	}
	if b, ok := meta["oversubscribed"].(bool); ok && b {
		fmt.Fprintf(os.Stderr, "perfbench: warning: ranks x workers exceeds nproc; wall times measure oversubscription\n")
	}

	res, err := buildResult(out, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	mb, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(mb))
	rb, _ := json.Marshal(res)
	fmt.Println(string(rb))
	return 0
}

// buildResult turns a workload's outcome into the result line: every
// end-to-end metric, or with trace every per-layer one, with its unit.
func buildResult(out *outcome, trace bool) (result, error) {
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation completed")
	}
	src := out.e2e
	if trace {
		src = out.layer
	}
	for _, m := range metricsFor(trace) {
		v, ok := src[m.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest of xs (0 for none). The heap peak of a run
// is the largest per-repetition peak: each repetition hits the
// collector's heap goal at a different moment, and the largest of
// several comes closest to the peak the run can reach.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
