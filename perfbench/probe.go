package main

import (
	"math"
	"runtime"
	"time"

	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// Probe sizes: calls per timed median, and MINRES iterations of the
// fixed-count Krylov probe.
const (
	probeHeavy = 3   // Setup, Update, mesh extraction
	probeApply = 10  // operator, preconditioner and V-cycle applies
	probeTiny  = 200 // ghost gathers, allreduces
	probeIters = 30
)

// timed runs f inside a span and returns its duration, which excludes
// the span bookkeeping.
func timed(tr *tracer, name string, parent, rank int, f func()) float64 {
	id := tr.begin(name, parent, rank)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	tr.end(id)
	return d
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perCall times n calls of f (collective when f is) and returns the
// median duration. With allocs it first makes n untraced calls and
// returns the process-wide allocations per call, summed over ranks.
func perCall(tr *tracer, name string, parent, rank, n int, allocs bool, f func()) (sec, allocsPer float64) {
	if allocs {
		m0 := mallocs()
		for i := 0; i < n; i++ {
			f()
		}
		allocsPer = float64(mallocs()-m0) / float64(n)
	}
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = timed(tr, name, parent, rank, f)
	}
	return median(ts), allocsPer
}

// probeLayers times the public entry points of each layer on the
// run's final mesh (collective: every rank makes the same calls; rank 0
// records). The Stokes solver is built here from the Sim's options, as
// the time loop builds it.
func probeLayers(r *sim.Rank, s *rhea.Sim, tr *tracer, parent int, out map[string]float64) {
	id := r.ID()
	rec := func(k string, v float64) {
		if id == 0 {
			out[k] = v
		}
	}
	cfg := s.Cfg
	opts := stokes.Options{
		AMG: cfg.AMG, MatrixFree: cfg.MatrixFree, MatFree: cfg.MatFree,
		Precond: cfg.Precond, GMG: cfg.GMG, LocalAMG: cfg.LocalAMG,
		Order: cfg.Order, Slip: cfg.SlipBC,
	}

	sec, _ := perCall(tr, "mesh.Extract", parent, id, probeHeavy, false, func() {
		if s.Forest != nil {
			mesh.ExtractForest(s.Forest, cfg.Geom)
		} else {
			mesh.Extract(s.Tree)
		}
	})
	rec("mesh.extract_s", sec)

	var solver *stokes.Solver
	sec, _ = perCall(tr, "stokes.Setup", parent, id, probeHeavy, false, func() {
		solver = stokes.Setup(s.Mesh, cfg.Dom, cfg.VelBC, opts)
	})
	rec("stokes.setup_s", sec)
	eta := s.ElementViscosity()
	force := probeForce(s, solver)
	sec, _ = perCall(tr, "stokes.Update", parent, id, probeHeavy, false, func() { solver.Update(eta, force) })
	rec("stokes.update_s", sec)

	x, y := la.NewVec(solver.Layout), la.NewVec(solver.Layout)
	fill(x.Data, id)
	opSec, opAllocs := perCall(tr, "stokes.Op.Apply", parent, id, probeApply, true, func() { solver.Op.Apply(x, y) })
	rec("stokes.op_apply_s", opSec)
	pc := solver.Precond()
	pcSec, _ := perCall(tr, "stokes.Precond.Apply", parent, id, probeApply, false, func() { pc.Apply(x, y) })
	rec("stokes.precond_apply_s", pcSec)

	if solver.MF != nil {
		elems := float64(r.AllreduceInt64(int64(len(s.Mesh.Leaves))))
		rec("matfree.elem_per_s", elems/opSec)
		rec("matfree.allocs_per_apply", opAllocs)
	}

	if h := solver.GMGH; h != nil {
		comp := h.Precond(func(p [3]float64) (float64, bool) {
			if cfg.SlipBC != nil {
				if _, ok := cfg.SlipBC(p); ok {
					return 0, true
				}
			}
			fixed, vals := cfg.VelBC(p)
			return vals[0], fixed[0]
		})
		xs, ys := la.NewVec(s.Mesh.Layout()), la.NewVec(s.Mesh.Layout())
		fill(xs.Data, id)
		sec, allocs := perCall(tr, "gmg.Component.Apply", parent, id, probeApply, true, func() { comp.Apply(xs, ys) })
		rec("gmg.vcycle_s", sec)
		rec("gmg.allocs_per_vcycle", allocs)
		le := h.LevelElems()
		rec("gmg.levels", float64(h.NumLevels()))
		rec("gmg.coarse_elems", float64(le[len(le)-1]))
	}

	// Krylov: MINRES at rtol 0 runs exactly probeIters iterations, each
	// one operator apply, one preconditioner apply and the vector work.
	var iterSec, iterAllocs float64
	for pass := 0; pass < 2; pass++ {
		xk := la.NewVec(solver.Layout)
		m0 := mallocs()
		var res krylov.Result
		d := timed(tr, "krylov.MINRES", parent, id, func() { res = krylov.MINRES(solver.Op, pc, solver.B, xk, 0, probeIters) })
		if pass == 1 { // the first pass warms caches
			iterSec = d / float64(max(1, res.Iterations))
			iterAllocs = float64(mallocs()-m0) / float64(max(1, res.Iterations))
		}
	}
	rec("krylov.iter_s", iterSec)
	rec("krylov.vector_s_per_iter", iterSec-opSec-pcSec)
	rec("krylov.allocs_per_iter", iterAllocs)

	gx := solver.NodeSlots().GX
	ghost := make([]float64, gx.NumGhosts())
	sec, allocs := perCall(tr, "la.GhostExchange.Gather", parent, id, probeTiny, true, func() { gx.Gather(s.T.Data, ghost) })
	rec("la.ghost_gather_s", sec)
	rec("la.ghost_allocs_per_gather", allocs)

	sec, _ = perCall(tr, "sim.Allreduce", parent, id, probeTiny, false, func() { r.Allreduce(1, sim.OpSum) })
	rec("sim.allreduce_s", sec)
}

// fill writes a smooth rank-dependent test vector.
func fill(xs []float64, rank int) {
	for i := range xs {
		xs[i] = math.Sin(0.37*float64(i) + 0.1*float64(rank))
	}
}

// probeForce samples the temperature at element corners through the
// solver's slot map and returns the buoyancy-like load Ra*T*e_z
// (collective: one ghost gather). Update costs the same for any load.
func probeForce(s *rhea.Sim, solver *stokes.Solver) [][8][3]float64 {
	sm := solver.NodeSlots()
	buf := make([]float64, sm.NSlots())
	copy(buf, s.T.Data)
	sm.GX.Gather(s.T.Data, buf[sm.NOwned:])
	force := make([][8][3]float64, len(s.Mesh.Leaves))
	for ei := range force {
		for c := 0; c < 8; c++ {
			co := &sm.Corners[ei][c]
			var t float64
			for k := 0; k < int(co.N); k++ {
				t += co.W[k] * buf[co.Slot[k]]
			}
			force[ei][c][2] = s.Cfg.Ra * t
		}
	}
	return force
}
