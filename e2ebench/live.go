package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
// Only the last cluster is kept for the measured phase.
const setupRepeats = 5

// waitTimeout bounds one job's wait; hitting it is an infrastructure
// failure.
const waitTimeout = 60 * time.Second

// liveEnv is what set-up leaves for the measured phase.
type liveEnv struct {
	c   *cluster
	reg *registry
	// ref maps a canary spec to the loss bits of its standalone
	// reference run.
	ref map[string]uint64
	// hints maps a churn job shape to its standalone profile.
	hints map[string]ctl.ProfileHints
	// baseGoroutines and baseHeap are measured after set-up, after GC.
	baseGoroutines int
	baseHeap       uint64
}

// setupLive boots the cluster setupRepeats times, each time running the
// canaries (and the churn profiles) alone on it, and keeps the last
// cluster. Every set-up must reproduce the same canary losses.
func setupLive(cfg runConfig, res *result, canaries []ctl.SubmitRequest, profiles map[string]ctl.SubmitRequest) (*liveEnv, error) {
	var secs []float64
	var env *liveEnv
	for i := 0; i < setupRepeats; i++ {
		var prevRef map[string]uint64
		if env != nil {
			prevRef = env.ref
			env.c.close()
		}
		// Each set-up starts from a collected heap, so a GC cycle owed to
		// the previous cluster's garbage does not land inside the timing.
		runtime.GC()
		start := time.Now()
		c, err := bootCluster(filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)), core.Options{}, res.spans)
		if err != nil {
			return nil, err
		}
		e := &liveEnv{c: c, reg: newRegistry(), ref: make(map[string]uint64), hints: make(map[string]ctl.ProfileHints)}
		if err := e.referenceRuns(canaries, profiles, i); err != nil {
			c.close()
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		for k, v := range prevRef {
			res.ledger.attempt()
			if e.ref[k] != v {
				res.ledger.fail(checkFailed("canary %s: set-up %d loss %v differs from set-up %d loss %v",
					k, i, math.Float64frombits(e.ref[k]), i-1, math.Float64frombits(v)))
			}
		}
		env = e
	}
	res.set("setup_s", "s", pct(secs, 0.5))
	res.sample("setup_s", "s", secs)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	env.baseGoroutines = runtime.NumGoroutine()
	env.baseHeap = mem.HeapAlloc
	return env, nil
}

// referenceRuns runs the canaries, each pinned to its own worker and
// together, then each churn shape alone on the idle cluster, and records
// the canary losses and the shapes' profiled costs.
func (e *liveEnv) referenceRuns(canaries []ctl.SubmitRequest, profiles map[string]ctl.SubmitRequest, round int) error {
	var batch []ctl.SubmitRequest
	for i, req := range canaries {
		req.Name = fmt.Sprintf("ref%d-canary%d", round, i)
		req.Workers = []string{e.c.names[i%len(e.c.names)]}
		batch = append(batch, req)
	}
	if err := e.runAlone(batch); err != nil {
		return err
	}
	for i, req := range canaries {
		v, _ := e.c.job(batch[i].Name)
		e.ref[canaryKey(req)] = math.Float64bits(v.Loss)
	}
	for _, shape := range sortedKeys(profiles) {
		req := profiles[shape]
		req.Name = fmt.Sprintf("ref%d-profile-%s", round, shape)
		req.Workers = e.c.names[:max(req.MaxWorkers, 1)]
		if err := e.runAlone([]ctl.SubmitRequest{req}); err != nil {
			return err
		}
		met, ok := e.c.m.Metrics(req.Name)
		if !ok || !met.Profiled() {
			return fmt.Errorf("set-up: profile run %s left no profile", req.Name)
		}
		e.hints[shape] = ctl.ProfileHints{CompSeconds: met.CompMachineSeconds, NetSeconds: met.NetSeconds}
	}
	return nil
}

// runAlone submits pinned jobs to the idle cluster and waits until each
// finished its iterations with a finite loss.
func (e *liveEnv) runAlone(reqs []ctl.SubmitRequest) error {
	for _, req := range reqs {
		sr, err := e.c.submit(req)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if sr.state != "running" {
			return fmt.Errorf("set-up: %s answered %d %q, want running", req.Name, sr.code, sr.state)
		}
	}
	for _, req := range reqs {
		if _, err := e.c.wait(req.Name, waitTimeout); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		v, ok := e.c.job(req.Name)
		if !ok || v.State != "finished" || v.Iteration != req.Iterations-1 ||
			math.IsNaN(v.Loss) || math.IsInf(v.Loss, 0) {
			return fmt.Errorf("set-up: reference run %s ended %+v", req.Name, v)
		}
	}
	return nil
}

// retained reports what finished jobs leave behind: goroutines and heap
// after GC, above the post-set-up baseline, per finished job.
func (e *liveEnv) retained(res *result, finished int) {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	g := float64(runtime.NumGoroutine() - e.baseGoroutines)
	h := (float64(mem.HeapAlloc) - float64(e.baseHeap)) / 1024
	res.set("worker.retained_goroutines_per_job", "count", ratio(g, float64(finished)))
	res.set("worker.retained_heap_kb_per_job", "KB", ratio(h, float64(finished)))
	res.notef("after %d finished jobs: %+.0f goroutines, %+.1f MB heap in use over the set-up baseline",
		finished, g, h/1024)
}

// slot is one closed-loop submitter: it submits a job, waits for it and
// submits the next.
//
// Every slot runs jobsPerSlot jobs, so a run leaves the same number of
// finished jobs — and the heap their unreleased state holds — however
// fast the machine runs; a main slot keeps going past that only if the
// window is still open. The closed-loop jobs are sized to take 6.5–9 s
// each on a 2-vCPU machine, so three of them outlast the 15 s window of
// BENCHMARK.json even at its fastest.
type slot struct {
	prefix string
	req    ctl.SubmitRequest
	canary bool
}

// phaseOut is what a measured phase did. Its throughput is the median
// of the completed-job-iteration rates over the ticks of the window
// [start, start+dur); progress counts whole jobs that finished plus the
// iterations of jobs still running. Jobs running when the window closes
// run to completion and are checked like the rest, but their later
// iterations are not counted. Canaries are load and checks, not
// throughput: they are short single-worker jobs whose bursts of fast
// iterations would swamp the ticks they fall in.
type phaseOut struct {
	start    time.Time
	window   time.Duration
	rates    []float64 // job-iterations per second, one per tick
	finished []string
	// iters is every job-iteration the phase's non-canary jobs ran,
	// window or not.
	iters   float64
	jcts    []float64 // ms, canaries excluded
	kindJCT map[string][]float64
	submits []float64 // POST round trips, ms
}

func (p *phaseOut) rate() float64 { return pct(p.rates, 0.5) }

// jobsPerSlot is how many jobs every closed-loop slot runs.
const jobsPerSlot = 3

// rateTick is the throughput sampling interval.
const rateTick = 250 * time.Millisecond

// runSlots runs the closed loops, measuring throughput over a window of
// dur, and waits for the last jobs. Job seeds derive from the run seed;
// canaries keep their fixed seeds.
func runSlots(e *liveEnv, res *result, slots []slot, seed int64, dur time.Duration, tag string) *phaseOut {
	out := &phaseOut{start: time.Now(), window: dur, kindJCT: make(map[string][]float64)}
	deadline := out.start.Add(dur)
	var mu sync.Mutex
	inFlight := make(map[string]bool)
	var doneIters float64
	var wg sync.WaitGroup
	for si, s := range slots {
		wg.Add(1)
		go func(si int, s slot) {
			defer wg.Done()
			for k := 0; k < jobsPerSlot || (!s.canary && time.Now().Before(deadline)); k++ {
				req := s.req
				req.Name = fmt.Sprintf("%s-%s-%d", tag, s.prefix, k)
				if !s.canary {
					req.Seed = seed*1_000_003 + int64(si)*10_007 + int64(k)
				}
				e.reg.add(jobRec{req: req, canary: s.canary})
				res.ledger.attempt()
				if !s.canary {
					mu.Lock()
					inFlight[req.Name] = true
					mu.Unlock()
				}
				due := time.Now()
				sr, err := e.c.submit(req)
				if err != nil {
					res.ledger.fail(err)
					return
				}
				if sr.state != "running" {
					res.ledger.fail(checkFailed("pinned job %s answered %d %q, want running", req.Name, sr.code, sr.state))
					return
				}
				done, err := e.c.wait(req.Name, waitTimeout)
				if err != nil {
					res.ledger.fail(err)
					return
				}
				mu.Lock()
				out.finished = append(out.finished, req.Name)
				out.submits = append(out.submits, ms(sr.rtt))
				if !s.canary {
					delete(inFlight, req.Name)
					doneIters += float64(req.Iterations)
					out.jcts = append(out.jcts, ms(done.Sub(due)))
					out.kindJCT[req.Algorithm] = append(out.kindJCT[req.Algorithm], ms(done.Sub(due)))
				}
				mu.Unlock()
			}
		}(si, s)
	}
	progress := func() float64 {
		mu.Lock()
		defer mu.Unlock()
		p := doneIters
		for name := range inFlight {
			// A job that finished but whose slot has not yet moved it
			// to doneIters still counts, so progress never dips.
			if v, ok := e.c.job(name); ok && (v.State == "running" || v.State == "finished") {
				p += float64(v.Iteration + 1)
			}
		}
		return p
	}
	last, lastT := 0.0, out.start
	for t := out.start.Add(rateTick); !t.After(deadline); t = t.Add(rateTick) {
		time.Sleep(time.Until(t))
		p, now := progress(), time.Now()
		out.rates = append(out.rates, (p-last)/now.Sub(lastT).Seconds())
		last, lastT = p, now
	}
	wg.Wait()
	out.iters = doneIters
	return out
}

// checkAll applies the output checks to every finished job and reports
// each algorithm's final loss over its untrained loss.
func checkAll(e *liveEnv, res *result, names []string) {
	over := make(map[string][]float64)
	for _, name := range names {
		j, _ := e.reg.get(name)
		r, err := checkFinished(e.c, j, e.ref)
		if err != nil {
			res.ledger.fail(err)
			continue
		}
		res.ledger.note(OutcomeOK, "")
		if !j.canary {
			over[j.req.Algorithm] = append(over[j.req.Algorithm], r)
		}
	}
	reportLossRatios(res, over)
}

// reportLossRatios adds each algorithm's loss-over-untrained
// distribution to the run, calling out an objective that did not fall.
func reportLossRatios(res *result, over map[string][]float64) {
	for _, algo := range sortedKeys(over) {
		xs := append(res.samples["loss_over_untrained."+algo], over[algo]...)
		res.sample("loss_over_untrained."+algo, "ratio", xs)
		if !lossFalls[algo] {
			rose := 0
			for _, x := range xs {
				if x >= 1 {
					rose++
				}
			}
			res.notef("%s: final loss at or above the untrained loss in %d of %d jobs (known defect of its objective, reported, not gated)",
				algo, rose, len(xs))
		}
	}
}

// closedLoop runs iter-bound and colocated-mixed.
// Untraced: one measured phase. Traced: the window is split into an
// untraced half and a traced half; the per-layer numbers come from the
// second and the tracing overhead from the ratio of their throughputs.
func closedLoop(cfg runConfig, res *result, slots []slot, canaries []ctl.SubmitRequest) error {
	env, err := setupLive(cfg, res, canaries, nil)
	if err != nil {
		return err
	}
	defer env.c.close()
	dur := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		out := runSlots(env, res, slots, cfg.seed, dur, "m")
		checkAll(env, res, out.finished)
		reportClosedLoop(res, out)
		return nil
	}

	dur /= 2
	plain := runSlots(env, res, slots, cfg.seed, dur, "u")
	checkAll(env, res, plain.finished)
	env.c.enableTracing()
	before, err := snapCounters(env.c)
	if err != nil {
		return err
	}
	col := startCollector(env.c, env.reg)
	traced := runSlots(env, res, slots, cfg.seed+1, dur, "t")
	col.stop()
	after, err := snapCounters(env.c)
	if err != nil {
		return err
	}
	checkAll(env, res, traced.finished)
	reportClosedLoop(res, traced)
	setBudgetMetrics(res, col)
	res.block(col.report)
	setCounterMetrics(res, before, after, traced.iters)
	setOverlap(res, env.c)
	res.set("obs.overhead_ratio", "ratio", ratio(plain.rate(), traced.rate()))
	res.set("ctl.submit_ms_p50", "ms", pct(traced.submits, 0.5))
	res.set("ctl.submit_ms_p95", "ms", pct(traced.submits, 0.95))
	env.retained(res, len(plain.finished)+len(traced.finished))
	return nil
}

func reportClosedLoop(res *result, out *phaseOut) {
	res.set("throughput_per_s", "1/s", out.rate())
	res.set("latency_p50_ms", "ms", meanOfMedians(out.kindJCT))
	res.sample("jct_ms", "ms", out.jcts)
	res.sample("submit_ms", "ms", out.submits)
	res.sample("throughput_per_s", "1/s", out.rates)
	for kind, xs := range out.kindJCT {
		res.sample("jct_ms."+kind, "ms", xs)
	}
	res.set("job_iters_per_s", "1/s", out.rate())
	res.set("jct_p50_s", "s", pct(out.jcts, 0.5)/1e3)
	res.set("jct_p95_s", "s", pct(out.jcts, 0.95)/1e3)
	res.notef("%d jobs submitted in the %.0f s window; the last finished %.2f s after it opened",
		len(out.finished), out.window.Seconds(), time.Since(out.start).Seconds())
}

// Canaries are single-worker jobs with fixed seeds: nothing races on one
// worker, so each must finish bit-equal to its standalone reference.
var canaryMLR = ctl.SubmitRequest{Algorithm: "mlr", Features: 24, Classes: 3, Rows: 192,
	LearningRate: 0.2, Iterations: 300, Seed: 90001}
var canaryLasso = ctl.SubmitRequest{Algorithm: "lasso", Features: 24, Rows: 160,
	Lambda: 0.02, Iterations: 300, Seed: 90002}
var canaryLDA = ctl.SubmitRequest{Algorithm: "lda", Features: 64, Classes: 4, Rows: 64,
	Iterations: 60, Seed: 90003}

func pinned(req ctl.SubmitRequest, workers []string) ctl.SubmitRequest {
	req.Workers = workers
	return req
}

var allWorkers = []string{"w0", "w1", "w2", "w3"}

// runIterBound: eight tiny MLR/Lasso jobs, each spanning all four
// workers for 900 iterations (2,700 per slot in a run), so
// the fixed cost of every iteration — the barrier round trip, executor
// hand-offs, small frames — dominates.
func runIterBound(cfg runConfig, res *result) error {
	mlr := ctl.SubmitRequest{Algorithm: "mlr", Features: 32, Classes: 4, Rows: 512,
		LearningRate: 0.2, Iterations: 900}
	lasso := ctl.SubmitRequest{Algorithm: "lasso", Features: 32, Rows: 384,
		Lambda: 0.02, Iterations: 900}
	var slots []slot
	for i := 0; i < 4; i++ {
		slots = append(slots,
			slot{prefix: fmt.Sprintf("mlr%d", i), req: pinned(mlr, allWorkers)},
			slot{prefix: fmt.Sprintf("lasso%d", i), req: pinned(lasso, allWorkers)})
	}
	canaries := []ctl.SubmitRequest{canaryMLR, canaryLasso}
	slots = append(slots,
		slot{prefix: "canary-mlr", req: pinned(canaryMLR, []string{"w0"}), canary: true},
		slot{prefix: "canary-lasso", req: pinned(canaryLasso, []string{"w3"}), canary: true})
	return closedLoop(cfg, res, slots, canaries)
}

// runColocated: COMP-heavy NMF jobs, one per worker, and an LDA job
// share all four workers with COMM-heavy wide MLR jobs (65,536
// parameters) spanning them — the paper's case of overlapping COMP and
// COMM subtasks. NMF runs on single workers because a multi-worker
// NMF job's last PULL can read a half-applied PUSH (the race noted in
// checkFinished), and NMF's clamped updates can make that model's loss
// exceed the untrained one; on one worker nothing races.
func runColocated(cfg runConfig, res *result) error {
	nmf := ctl.SubmitRequest{Algorithm: "nmf", Features: 128, Classes: 8, Rows: 128,
		LearningRate: 0.05, Iterations: 225}
	lda := ctl.SubmitRequest{Algorithm: "lda", Features: 256, Classes: 8, Rows: 256,
		Iterations: 145}
	wide := ctl.SubmitRequest{Algorithm: "mlr", Features: 8192, Classes: 8, Rows: 64,
		LearningRate: 0.1, Iterations: 140}
	var slots []slot
	for _, w := range allWorkers {
		slots = append(slots, slot{prefix: "nmf-" + w, req: pinned(nmf, []string{w})})
	}
	slots = append(slots,
		slot{prefix: "lda0", req: pinned(lda, allWorkers)},
		slot{prefix: "wide0", req: pinned(wide, allWorkers)},
		slot{prefix: "wide1", req: pinned(wide, allWorkers)},
		slot{prefix: "canary-mlr", req: pinned(canaryMLR, []string{"w1"}), canary: true},
		slot{prefix: "canary-lda", req: pinned(canaryLDA, []string{"w2"}), canary: true},
	)
	return closedLoop(cfg, res, slots, []ctl.SubmitRequest{canaryMLR, canaryLDA})
}
