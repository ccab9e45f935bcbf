package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"rhea/internal/bench"
	"rhea/internal/rhea"
	"rhea/internal/sim"
)

// simWorkload is an in-process simulation: each repetition builds a
// fresh world and Sim, runs the cycle schedule and the final solve, and
// checks the result.
type simWorkload struct {
	name   string
	ranks  int
	cycles int   // solve + advect + adapt rounds before the final solve
	budget int64 // element budget (TargetElems)
	config func(seed int64) rhea.Config
}

// Set-up is a ms-scale sample, so each run takes the median of many:
// setupOnly constructions before the timed loop plus one per timed rep.
const setupOnly = 25

// bungeGMG is Bunge case 2 (30x lower mantle, free-slip top) on the
// registry's matrix-free Q1 + GMG path, with the element budget raised
// from 400 to 1500 and one more level so the GMG hierarchy is deeper.
// Base level 2 with two initial adaptation rounds makes set-up ~80 ms.
// The matrix-free worker count is fixed at 2, the default on a 2-core
// host, because it sets the summation order and hence the pinned bits.
var bungeGMG = simWorkload{
	name: "bunge-gmg", ranks: 1, cycles: 1, budget: 1500,
	config: func(seed int64) rhea.Config {
		c, _ := bench.Lookup("bunge2")
		cfg := c.Config()
		cfg.BaseLevel, cfg.MaxLevel, cfg.InitAdapt, cfg.TargetElems = 2, 4, 2, 1500
		cfg.MatFree.Workers = 2
		if seed != 0 {
			cfg.InitialTemp = bungeTemp(blob(seed))
		}
		return cfg
	},
}

// boxAMG2R is the unit-box regression physics on the default
// assembled-CSR + redundant-AMG path at 2 ranks, adapting every cycle
// with a larger budget than the registry's 200.
var boxAMG2R = simWorkload{
	name: "box-amg-2r", ranks: 2, cycles: 3, budget: 1000,
	config: func(seed int64) rhea.Config {
		c, _ := bench.Lookup("box")
		cfg := c.Config()
		cfg.BaseLevel, cfg.MaxLevel, cfg.InitAdapt, cfg.TargetElems = 3, 5, 2, 1000
		if seed != 0 {
			cfg.InitialTemp = boxTemp(blob(seed))
		}
		return cfg
	},
}

func runBungeGMG(o runOpts) (*outcome, error) { return runSim(bungeGMG, o) }
func runBoxAMG2R(o runOpts) (*outcome, error) { return runSim(boxAMG2R, o) }

// blobShift is a seeded perturbation of the initial Gaussian blob: a
// centre offset of up to 2e-4 per axis and an amplitude change of up to
// 1%. Larger offsets move the adapted meshes across refinement-family
// steps (box: 911 to 1100 elements at a 0.02 offset), so that the
// work, not only the digits, would depend on the seed.
type blobShift struct {
	dx    [3]float64
	scale float64
}

func blob(seed int64) blobShift {
	rng := rand.New(rand.NewSource(seed))
	var b blobShift
	for i := range b.dx {
		b.dx[i] = 4e-4 * (rng.Float64() - 0.5)
	}
	b.scale = 1 + 0.02*(rng.Float64()-0.5)
	return b
}

// bungeTemp is bench.BungeTemp with its blob moved by b.
func bungeTemp(b blobShift) func([3]float64) float64 {
	return func(x [3]float64) float64 {
		rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
		cond := bench.BungeRInner * (bench.BungeROuter - rad) / (rad * (bench.BungeROuter - bench.BungeRInner))
		d0, d1, d2 := x[0]-1.45-b.dx[0], x[1]-b.dx[1], x[2]-0.7-b.dx[2]
		return cond + 0.2*b.scale*math.Exp(-(d0*d0+d1*d1+d2*d2)/0.05)
	}
}

// boxTemp is rhea.BoxBlobTemp with its blob moved by b.
func boxTemp(b blobShift) func([3]float64) float64 {
	return func(x [3]float64) float64 {
		d0, d1, d2 := x[0]-0.4-b.dx[0], x[1]-0.6-b.dx[1], x[2]-0.3-b.dx[2]
		return (1 - x[2]) + 0.2*b.scale*math.Exp(-(d0*d0+d1*d1+d2*d2)/0.03)
	}
}

// procSample is the process state at one instant of a repetition.
type procSample struct {
	t          time.Time
	cpu        float64 // user + system seconds
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	return procSample{t: time.Now(), cpu: cpu, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes
// between start and finish. Sampling every 2 ms finds the peak just
// before each collection, which boundary samples alone hit or miss by
// chance.
type heapSampler struct {
	stop, done chan struct{}
	once       sync.Once
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes; calls after
// the first only return it.
func (h *heapSampler) finish() uint64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	return h.peak
}

// window holds the end-to-end figures of one timed repetition.
type window struct {
	setup, tts, cpu, allocMB, peakMB float64
	gcCycles, gcPause                float64
}

func windowOf(start time.Time, ready, end procSample, peak uint64) window {
	return window{
		setup:    ready.t.Sub(start).Seconds(),
		tts:      end.t.Sub(ready.t).Seconds(),
		cpu:      end.cpu - ready.cpu,
		allocMB:  float64(end.totalAlloc-ready.totalAlloc) / 1e6,
		peakMB:   float64(peak) / 1e6,
		gcCycles: float64(end.numGC - ready.numGC),
		gcPause:  float64(end.pauseNs-ready.pauseNs) / 1e9,
	}
}

// simRep is the checked outcome of one repetition.
type simRep struct {
	w         window
	iters     int // MINRES iterations over every Stokes solve
	solves    int
	converged bool
	finite    bool
	elements  int64
	nu, vrms  float64
	stats     []sim.Stats
	root      int // rank 0's rep span (traced reps)
}

// repKind selects what a repetition does beyond the timed schedule.
type repKind int

const (
	repTimed repKind = iota
	repSetup         // construction only
	repProbe         // timed schedule, then the layer probes
)

func runSim(w simWorkload, o runOpts) (*outcome, error) {
	cfg := w.config(o.seed)
	out := newOutcome()
	workers := 0
	if cfg.MatrixFree {
		workers = cfg.MatFree.Workers
	}
	out.info["ranks"] = w.ranks
	out.info["matfree_workers"] = workers
	out.info["oversubscribed"] = w.ranks*max(1, workers) > runtime.NumCPU()
	out.info["cycles"] = w.cycles
	out.info["target_elems"] = w.budget
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, time.Now().UnixNano()))
		out.spans = tr
	}

	// One untimed repetition first, so the heap has grown and caches are
	// warm before any sample is taken; it is gated like the others.
	warm, err := simRepetition(w, cfg, repTimed, nil, nil)
	if err != nil {
		return nil, err
	}
	checkSimRep(w, o.seed, warm, nil, out)
	var setups []float64
	for i := 0; i < setupOnly; i++ {
		rep, err := simRepetition(w, cfg, repSetup, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.w.setup)
	}

	// Timed loop. Trace runs alternate untraced and traced repetitions,
	// so the difference of their medians is the tracing overhead.
	var reps, traced, plain []simRep
	begin := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		// Stop before a repetition that would likely end past the window.
		if i >= 3 {
			el := time.Since(begin)
			if el+el/time.Duration(i) > budget {
				break
			}
		}
		var t *tracer
		if o.trace && i%2 == 1 {
			t = tr
		}
		rep, err := simRepetition(w, cfg, repTimed, t, nil)
		if err != nil {
			return nil, err
		}
		checkSimRep(w, o.seed, rep, &warm, out)
		reps = append(reps, rep)
		setups = append(setups, rep.w.setup)
		if t != nil {
			traced = append(traced, rep)
		} else {
			plain = append(plain, rep)
		}
	}
	out.info["reps"] = len(reps)
	out.info["setup_samples"] = len(setups)

	col := func(f func(simRep) float64) []float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return xs
	}
	out.info["tts_samples"] = col(func(r simRep) float64 { return r.w.tts })
	out.e2e["setup_s"] = median(setups)
	out.e2e["time_to_solution_s"] = median(col(func(r simRep) float64 { return r.w.tts }))
	out.e2e["cpu_s"] = median(col(func(r simRep) float64 { return r.w.cpu }))
	out.e2e["alloc_mb"] = median(col(func(r simRep) float64 { return r.w.allocMB }))
	out.e2e["peak_heap_mb"] = maxOf(col(func(r simRep) float64 { return r.w.peakMB }))
	out.e2e["minres_iters"] = float64(reps[0].iters)
	first := reps[0]
	comm := commOf(first.stats)
	out.info["comm_msgs"] = comm.msgs
	out.info["comm_bytes"] = comm.bytes
	out.info["coll_rounds"] = comm.rounds
	out.info["elements"] = first.elements
	out.info["nu"] = first.nu
	out.info["vrms"] = first.vrms

	if !o.trace {
		return out, nil
	}

	// Layer metrics: spans of the traced repetitions, then probes on the
	// final mesh of one more repetition.
	probes := map[string]float64{}
	rep, err := simRepetition(w, cfg, repProbe, tr, probes)
	if err != nil {
		return nil, err
	}
	checkSimRep(w, o.seed, rep, &warm, out)
	L := out.layer
	for _, m := range perLayer {
		L[m.name] = 0
	}
	var news, solves, advects, adapts, diags, uncovered []float64
	var nSolve, nAdapt float64
	for _, r := range traced {
		s := tr.sums(r.root, 0)
		c := tr.counts(r.root, 0)
		news = append(news, s["rhea.New"])
		solves = append(solves, s["rhea.SolveStokes"])
		advects = append(advects, s["rhea.AdvectSteps"]/float64(c["rhea.AdvectSteps"]*cfg.AdaptEvery))
		adapts = append(adapts, s["rhea.Adapt"])
		diags = append(diags, s["rhea.diag"])
		covered := s["rhea.SolveStokes"] + s["rhea.AdvectSteps"] + s["rhea.Adapt"] + s["rhea.diag"]
		uncovered = append(uncovered, (r.w.tts-covered)/r.w.tts)
		nSolve, nAdapt = float64(c["rhea.SolveStokes"]), float64(c["rhea.Adapt"])
	}
	L["rhea.new_s"] = median(news)
	L["rhea.solve_s"] = median(solves)
	L["rhea.solve_calls"] = nSolve
	L["rhea.advect_s_per_step"] = median(advects)
	L["rhea.adapt_s"] = median(adapts)
	L["rhea.adapt_calls"] = nAdapt
	L["rhea.diag_s"] = median(diags)
	L["trace.uncovered_share"] = median(uncovered)
	var tTraced, tPlain []float64
	for _, r := range traced {
		tTraced = append(tTraced, r.w.tts)
	}
	for _, r := range plain {
		tPlain = append(tPlain, r.w.tts)
	}
	L["trace.overhead_s"] = median(tTraced) - median(tPlain)
	L["go.gc_cycles"] = median(col(func(r simRep) float64 { return r.w.gcCycles }))
	L["go.gc_pause_s"] = median(col(func(r simRep) float64 { return r.w.gcPause }))
	L["krylov.iters_per_solve"] = float64(first.iters) / float64(first.solves)
	if w.ranks > 1 {
		var user, coll int
		var userB, collB int64
		var calls int
		for _, s := range first.stats {
			user += s.UserMsgs
			coll += s.CollMsgs
			userB += s.UserBytes
			collB += s.CollTransportBytes
			calls = max(calls, s.CollectiveCalls)
		}
		L["sim.user_msgs"] = float64(user)
		L["sim.coll_msgs"] = float64(coll)
		L["sim.user_mb"] = float64(userB) / 1e6
		L["sim.coll_mb"] = float64(collB) / 1e6
		L["sim.coll_calls"] = float64(calls)
		L["sim.coll_rounds_per_iter"] = float64(comm.rounds) / float64(first.iters)
		L["comm_msgs"] = float64(comm.msgs)
		L["comm_mb"] = float64(comm.bytes) / 1e6
		L["coll_rounds"] = float64(comm.rounds)
	}
	for k, v := range probes {
		L[k] = v
	}
	return out, nil
}

type commTotals struct {
	msgs   int
	bytes  int64
	rounds int
}

// commOf sums transport messages and bytes over ranks and takes the
// largest per-rank collective round count.
func commOf(stats []sim.Stats) commTotals {
	var c commTotals
	for _, s := range stats {
		c.msgs += s.MsgsSent
		c.bytes += s.BytesSent
		c.rounds = max(c.rounds, s.CollRounds)
	}
	return c
}

// simRepetition runs one repetition in a fresh world. Rank 0 samples
// the process at "ready" (after rhea.New) and at "end" (after the
// checked Nu/Vrms) and tracks the heap in between; the other ranks run
// in lockstep, so their share of either boundary differs by at most one
// local loop.
func simRepetition(w simWorkload, cfg rhea.Config, kind repKind, tr *tracer, probes map[string]float64) (simRep, error) {
	var rep simRep
	rep.converged, rep.finite = true, true
	var mu sync.Mutex
	runtime.GC()
	start := time.Now()
	rep.stats = make([]sim.Stats, w.ranks)
	world := sim.NewWorld(w.ranks)
	_, err := world.Run(func(r *sim.Rank) {
		id := r.ID()
		root := tr.begin("rep", 0, id)
		defer tr.end(root)
		if id == 0 {
			rep.root = root
		}
		var s *rhea.Sim
		tr.do("rhea.New", root, id, func() { s = rhea.New(r, cfg) })
		if kind == repSetup {
			if id == 0 {
				rep.w.setup = time.Since(start).Seconds()
			}
			return
		}
		var ready procSample
		var heap *heapSampler
		if id == 0 {
			ready = sampleProc()
			heap = startHeapSampler()
			defer heap.finish() // also when a rank failure unwinds rank 0
		}
		iters, solves, conv := 0, 0, true
		solve := func() {
			tr.do("rhea.SolveStokes", root, id, func() {
				res := s.SolveStokes()
				iters += res.Iterations
				solves++
				conv = conv && res.Converged
			})
		}
		var elements int64
		for c := 0; c < w.cycles; c++ {
			solve()
			tr.do("rhea.AdvectSteps", root, id, func() { s.AdvectSteps(s.Cfg.AdaptEvery) })
			tr.do("rhea.Adapt", root, id, func() { elements = s.Adapt().ElementsNow })
		}
		solve()
		var nu, vrms float64
		tr.do("rhea.diag", root, id, func() {
			nu = s.Nusselt()
			vrms = s.RMSVelocity()
		})
		fin := allFinite(s.T.Data) && allFinite(s.U[0].Data) && allFinite(s.U[1].Data) && allFinite(s.U[2].Data) && allFinite(s.P.Data)
		if id == 0 {
			end := sampleProc()
			rep.w = windowOf(start, ready, end, heap.finish())
			rep.iters, rep.solves, rep.elements, rep.nu, rep.vrms = iters, solves, elements, nu, vrms
		}
		mu.Lock()
		rep.converged = rep.converged && conv
		rep.finite = rep.finite && fin
		rep.stats[id] = r.Stats() // before the probes communicate
		mu.Unlock()
		if kind == repProbe {
			pid := tr.begin("probe", root, id)
			probeLayers(r, s, tr, pid, probes)
			tr.end(pid)
		}
	})
	if err != nil {
		return rep, fmt.Errorf("world failed: %w", err)
	}
	return rep, nil
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkSimRep is the output gate of one repetition. A repetition must
// also repeat the deterministic counters of ref, the run's first one.
func checkSimRep(w simWorkload, seed int64, rep simRep, ref *simRep, out *outcome) {
	out.attempted++
	var bad []string
	if !rep.converged {
		bad = append(bad, "a Stokes solve did not converge")
	}
	if !rep.finite {
		bad = append(bad, "non-finite T/U/P")
	}
	if math.IsNaN(rep.nu) || math.IsNaN(rep.vrms) || math.IsInf(rep.nu, 0) || math.IsInf(rep.vrms, 0) {
		bad = append(bad, "non-finite Nu/Vrms")
	}
	if seed == 0 {
		p := pins[w.name]
		if rep.elements != p.elements {
			bad = append(bad, fmt.Sprintf("elements %d, pinned %d", rep.elements, p.elements))
		}
		if !near(rep.nu, p.nu) || !near(rep.vrms, p.vrms) {
			bad = append(bad, fmt.Sprintf("Nu %.17g Vrms %.17g, pinned %.17g %.17g", rep.nu, rep.vrms, p.nu, p.vrms))
		}
	} else if rep.elements < 1 || float64(rep.elements) > 1.25*float64(w.budget) {
		bad = append(bad, fmt.Sprintf("elements %d outside (0, 1.25 x %d]", rep.elements, w.budget))
	}
	if ref != nil {
		a, b := commOf(ref.stats), commOf(rep.stats)
		if rep.iters != ref.iters || a != b {
			bad = append(bad, fmt.Sprintf("counters differ between repetitions: iters %d vs %d, comm %+v vs %+v", rep.iters, ref.iters, b, a))
		}
	}
	if len(bad) > 0 {
		out.fail("%s repetition %d: %v", w.name, out.attempted, bad)
	}
}

// pinTol is the relative tolerance of the Nu/Vrms pins: runs are
// deterministic per rank count, so only formatting slack is allowed.
const pinTol = 1e-9

func near(got, want float64) bool {
	return math.Abs(got-want) <= pinTol*math.Abs(want)
}
