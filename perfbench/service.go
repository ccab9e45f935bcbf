package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rhea/internal/ckpt"
	"rhea/internal/rhea"
	"rhea/internal/scenario"
	"rhea/internal/sim"
)

// The service-resume workload: one closed-loop client drives an
// in-process scenario.Manager (one worker) through scenario.NewHandler
// on loopback. Each job is submitted, followed to done, resumed by one
// cycle and followed to done again. A loop is jobsPerLoop such jobs with
// the same specs every loop, so per-loop counters repeat exactly.
const (
	jobsPerLoop  = 8
	serviceSetup = 101 // manager restarts + handler start-ups per run (sub-ms each)
	pollEvery    = 2 * time.Millisecond
	jobTimeout   = 60 * time.Second
)

// jobSpecs is the seeded job mix: the default box job (1 rank, 2 cycles,
// a snapshot every cycle); seeds other than 0 vary Ra by up to 1% per
// job.
func jobSpecs(seed int64) []scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]scenario.Spec, jobsPerLoop)
	for i := range specs {
		specs[i] = scenario.Spec{Name: fmt.Sprintf("bench-%d", i), Kind: "box", Ranks: 1, Cycles: 2, CheckpointEvery: 1}
		if seed != 0 {
			specs[i].Ra = 1e4 * (1 + 0.02*(rng.Float64()-0.5))
		}
	}
	return specs
}

// service is one running manager and its HTTP front end.
type service struct {
	m      *scenario.Manager
	srv    *http.Server
	served chan struct{}
	client *http.Client
	base   string
	dir    string
}

// startService brings up a manager rooted at dir and its handler on a
// loopback port, and returns once /healthz answers.
func startService(dir string) (*service, error) {
	m, err := scenario.NewManager(dir, 1)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	s := &service{
		m: m, srv: &http.Server{Handler: scenario.NewHandler(m)}, served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{}, Timeout: jobTimeout},
		base:   "http://" + ln.Addr().String(), dir: dir,
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed from close
	}()
	if err := s.call(http.MethodGet, "/healthz", nil, nil); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the HTTP server, waits for its goroutine and shuts the
// manager down.
func (s *service) close() {
	s.srv.Close()
	<-s.served
	s.client.Transport.(*http.Transport).CloseIdleConnections()
	s.m.Close()
}

// call makes one JSON request; a non-2xx answer is an error.
func (s *service) call(method, path string, body, into any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(b, into)
}

// jobRun is the client's record of one job.
type jobRun struct {
	latency, resumeLatency, queueWait float64
	polls                             []float64
	view                              scenario.JobView
	diags                             []scenario.CycleDiag
}

// follow polls job id until it is terminal. It returns the view, the
// time the job was first seen past queued, and the poll round trips.
func (s *service) follow(id int, tr *tracer, parent int) (scenario.JobView, time.Time, []float64, error) {
	var v scenario.JobView
	var started time.Time
	var polls []float64
	deadline := time.Now().Add(jobTimeout)
	for {
		var err error
		polls = append(polls, timed(tr, "http.GET job", parent, 0, func() {
			err = s.call(http.MethodGet, fmt.Sprintf("/scenarios/%d", id), nil, &v)
		}))
		if err != nil {
			return v, started, polls, err
		}
		if started.IsZero() && v.State != scenario.StateQueued {
			started = time.Now()
		}
		switch v.State {
		case scenario.StateQueued, scenario.StateRunning:
		default:
			return v, started, polls, nil
		}
		if time.Now().After(deadline) {
			return v, started, polls, fmt.Errorf("job %d still %s after %v", id, v.State, jobTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// diags reads job id's per-cycle diagnostics (JSON lines).
func (s *service) diags(id int) ([]scenario.CycleDiag, error) {
	resp, err := s.client.Get(fmt.Sprintf("%s/scenarios/%d/diag", s.base, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("diag %d: %s", id, resp.Status)
	}
	var out []scenario.CycleDiag
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d scenario.CycleDiag
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, sc.Err()
}

// runJob drives one job through submit, done, resume(+1) and done.
// Transport or protocol errors are returned; a job that ends in any
// state but done is reported in the view for the gate.
func (s *service) runJob(sp scenario.Spec, tr *tracer, parent int) (jobRun, error) {
	var jr jobRun
	jid := tr.begin("job", parent, 0)
	defer tr.end(jid)
	t0 := time.Now()
	var v scenario.JobView
	var err error
	tr.do("http.POST submit", jid, 0, func() { err = s.call(http.MethodPost, "/scenarios", sp, &v) })
	if err != nil {
		return jr, err
	}
	submitted := time.Now()
	v, started, polls, err := s.follow(v.ID, tr, jid)
	if err != nil {
		return jr, err
	}
	jr.latency = time.Since(t0).Seconds()
	if !started.IsZero() {
		jr.queueWait = started.Sub(submitted).Seconds()
	}
	jr.polls = polls
	if v.State != scenario.StateDone || v.Retries != 0 {
		jr.view = v
		return jr, nil
	}
	t1 := time.Now()
	tr.do("http.POST resume", jid, 0, func() {
		err = s.call(http.MethodPost, fmt.Sprintf("/scenarios/%d/resume", v.ID), map[string]int{"cycles": 1}, nil)
	})
	if err != nil {
		return jr, err
	}
	v, _, polls, err = s.follow(v.ID, tr, jid)
	if err != nil {
		return jr, err
	}
	jr.resumeLatency = time.Since(t1).Seconds()
	jr.polls = append(jr.polls, polls...)
	jr.view = v
	tr.do("http.GET diag", jid, 0, func() { jr.diags, err = s.diags(v.ID) })
	return jr, err
}

// checkJob is the output gate of one job.
func checkJob(seed int64, jr jobRun, out *outcome) {
	out.attempted++
	v := jr.view
	var bad []string
	if v.State != scenario.StateDone {
		bad = append(bad, fmt.Sprintf("state %s (%s)", v.State, v.Error))
	}
	if v.Retries != 0 {
		bad = append(bad, fmt.Sprintf("%d retries", v.Retries))
	}
	if len(jr.diags) != 3 {
		bad = append(bad, fmt.Sprintf("%d cycle diagnostics, want 3", len(jr.diags)))
	} else {
		for _, d := range jr.diags {
			if math.IsNaN(d.Nu) || math.IsInf(d.Nu, 0) || math.IsNaN(d.Vrms) || math.IsInf(d.Vrms, 0) {
				bad = append(bad, fmt.Sprintf("cycle %d: non-finite Nu/Vrms", d.Cycle))
			}
		}
		if seed == 0 {
			p := pins["service-resume"]
			if !near(jr.diags[1].Nu, p.nu) || !near(jr.diags[2].Nu, p.resumeNu) {
				bad = append(bad, fmt.Sprintf("Nu %.17g then %.17g after resume, pinned %.17g %.17g", jr.diags[1].Nu, jr.diags[2].Nu, p.nu, p.resumeNu))
			}
		}
	}
	if len(bad) > 0 {
		out.fail("job %d: %v", v.ID, bad)
	}
}

func runServiceResume(o runOpts) (*outcome, error) {
	out := newOutcome()
	out.info["ranks"] = 1
	out.info["matfree_workers"] = 0
	out.info["oversubscribed"] = 1 > runtime.NumCPU()
	out.info["jobs_per_loop"] = jobsPerLoop
	root, err := os.MkdirTemp(o.outDir, "svc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// The first start is untimed and serves one untimed, gated loop of
	// the job mix, which warms the process and leaves a journal history.
	// Every set-up sample then restarts the manager over that data dir,
	// replaying the history, as a restarted server does. Fresh dirs per
	// sample mostly timed the file system's metadata latency (medians
	// fourfold apart between runs on a shared host), and an empty
	// history leaves only sub-ms wake-up latencies to time.
	dir := filepath.Join(root, "mgr")
	specs := jobSpecs(o.seed)
	first, err := startService(dir)
	if err != nil {
		return nil, err
	}
	for _, sp := range specs {
		warm, err := first.runJob(sp, nil, 0)
		if err != nil {
			first.close()
			return nil, err
		}
		checkJob(o.seed, warm, out)
	}
	first.close()
	var setups []float64
	var svc *service
	for i := 0; i < serviceSetup; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := startService(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serviceSetup-1 {
			s.close()
		} else {
			svc = s
		}
	}
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()

	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("service-resume-seed%d-%d", o.seed, time.Now().UnixNano()))
		out.spans = tr
	}
	type loopRun struct {
		w      window
		iters  int
		traced bool
		root   int
	}
	var loops []loopRun
	var jobs []jobRun
	begin := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
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
		runtime.GC()
		lr := loopRun{traced: t != nil}
		lr.root = t.begin("loop", 0, 0)
		ready := sampleProc()
		heap := startHeapSampler()
		var jrs []jobRun
		var err error
		for _, sp := range specs {
			var jr jobRun
			if jr, err = svc.runJob(sp, t, lr.root); err != nil {
				break
			}
			jrs = append(jrs, jr)
		}
		end := sampleProc()
		peak := heap.finish()
		t.end(lr.root)
		if err != nil {
			return nil, err
		}
		lr.w = windowOf(ready.t, ready, end, peak)
		for _, jr := range jrs {
			checkJob(o.seed, jr, out)
			for _, d := range jr.diags {
				lr.iters += d.MinresIters
			}
		}
		jobs = append(jobs, jrs...)
		if len(loops) > 0 && lr.iters != loops[0].iters {
			out.fail("loop %d: %d MINRES iterations, loop 0 had %d", i, lr.iters, loops[0].iters)
		}
		loops = append(loops, lr)
	}

	col := func(f func(loopRun) float64) []float64 {
		var xs []float64
		for _, l := range loops {
			xs = append(xs, f(l))
		}
		return xs
	}
	jcol := func(f func(jobRun) float64) []float64 {
		var xs []float64
		for _, j := range jobs {
			xs = append(xs, f(j))
		}
		return xs
	}
	out.info["loops"] = len(loops)
	out.info["jobs"] = len(jobs)
	out.info["setup_samples"] = len(setups)
	out.info["tts_samples"] = col(func(l loopRun) float64 { return l.w.tts })
	jobP50 := median(jcol(func(j jobRun) float64 { return j.latency }))
	resumeP50 := median(jcol(func(j jobRun) float64 { return j.resumeLatency }))
	out.info["job_latency_s.p50"] = jobP50
	out.info["resume_latency_s.p50"] = resumeP50
	out.e2e["setup_s"] = median(setups)
	out.e2e["time_to_solution_s"] = median(col(func(l loopRun) float64 { return l.w.tts }))
	out.e2e["cpu_s"] = median(col(func(l loopRun) float64 { return l.w.cpu }))
	out.e2e["alloc_mb"] = median(col(func(l loopRun) float64 { return l.w.allocMB }))
	out.e2e["peak_heap_mb"] = maxOf(col(func(l loopRun) float64 { return l.w.peakMB }))
	out.e2e["minres_iters"] = float64(loops[0].iters)
	if !o.trace {
		return out, nil
	}

	L := out.layer
	for _, m := range perLayer {
		L[m.name] = 0
	}
	L["scenario.job_latency_s.p50"] = jobP50
	L["scenario.resume_latency_s.p50"] = resumeP50
	L["scenario.queue_wait_s"] = median(jcol(func(j jobRun) float64 { return j.queueWait }))
	var polls []float64
	retries := 0
	for _, j := range jobs {
		polls = append(polls, j.polls...)
		retries += j.view.Retries
	}
	L["scenario.http_s"] = median(polls)
	L["scenario.retries"] = float64(retries)
	if fi, err := os.Stat(filepath.Join(svc.dir, "jobs.jsonl")); err == nil {
		L["scenario.journal_kb_per_job"] = float64(fi.Size()) / 1e3 / float64(len(jobs)+len(specs)) // + the warm-up loop
	}
	L["go.gc_cycles"] = median(col(func(l loopRun) float64 { return l.w.gcCycles }))
	L["go.gc_pause_s"] = median(col(func(l loopRun) float64 { return l.w.gcPause }))
	var plain, traced, uncovered []float64
	for _, l := range loops {
		if !l.traced {
			plain = append(plain, l.w.tts)
			continue
		}
		traced = append(traced, l.w.tts)
		uncovered = append(uncovered, (l.w.tts-tr.sums(l.root, 0)["job"])/l.w.tts)
	}
	L["trace.overhead_s"] = median(traced) - median(plain)
	L["trace.uncovered_share"] = median(uncovered)

	last := jobs[len(jobs)-1].view
	if err := probeSnapshots(specs[len(specs)-1], last.Snapshot, filepath.Join(root, "probe"), tr, L); err != nil {
		return nil, err
	}
	return out, nil
}

// probeSnapshots times the snapshot write and read paths on the last
// job's committed snapshot: ckpt.Read/Write alone, and rhea's
// Checkpoint/Restore around them, plus rhea.New for the job's config.
func probeSnapshots(sp scenario.Spec, snap, dir string, tr *tracer, L map[string]float64) error {
	var kb float64
	entries, err := os.ReadDir(snap)
	if err != nil {
		return err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return err
		}
		kb += float64(fi.Size()) / 1e3
	}
	L["ckpt.snapshot_kb"] = kb
	cfg := sp.Config()
	var perr error
	_, err = sim.NewWorld(1).Run(func(r *sim.Rank) {
		pid := tr.begin("probe", 0, 0)
		defer tr.end(pid)
		L["rhea.new_s"], _ = perCall(tr, "rhea.New", pid, 0, probeHeavy, false, func() { rhea.New(r, cfg) })
		var s *rhea.Sim
		L["rhea.restore_s"], _ = perCall(tr, "rhea.Restore", pid, 0, probeHeavy, false, func() {
			var err error
			if s, err = rhea.Restore(r, cfg, snap); err != nil && perr == nil {
				perr = err
			}
		})
		if perr != nil {
			return
		}
		n := 0
		L["rhea.checkpoint_s"], _ = perCall(tr, "rhea.Checkpoint", pid, 0, probeHeavy, false, func() {
			n++
			if err := s.Checkpoint(filepath.Join(dir, fmt.Sprintf("rhea-%d", n))); err != nil && perr == nil {
				perr = err
			}
		})
		var st *ckpt.State
		L["ckpt.read_s"], _ = perCall(tr, "ckpt.Read", pid, 0, probeHeavy, false, func() {
			var err error
			if st, err = ckpt.Read(r, snap); err != nil && perr == nil {
				perr = err
			}
		})
		if perr != nil {
			return
		}
		L["ckpt.write_s"], _ = perCall(tr, "ckpt.Write", pid, 0, probeHeavy, false, func() {
			n++
			if err := ckpt.Write(r, filepath.Join(dir, fmt.Sprintf("ckpt-%d", n)), st); err != nil && perr == nil {
				perr = err
			}
		})
	})
	if err != nil {
		return err
	}
	return perr
}
