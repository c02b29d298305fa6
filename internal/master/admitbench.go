package master

import (
	"fmt"
	"sort"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// This file is the cluster-scale admission benchmark behind
// `harmony-bench -bench-admit` (DESIGN.md §15): it drives a real Master
// — the live admission path, not a simulation — at a scale no test
// cluster reaches (1K machines, 10K held jobs) by standing up a single
// stub worker RPC server that acks deploy/teardown calls for the whole
// fleet. It lives in package master because the harness must reach the
// master's internals: registering synthetic workers without 1K dial
// handshakes, completing jobs without a data plane, and timing drain
// passes synchronously with the background drainer parked.

// AdmitBenchConfig sizes one benchmark run.
type AdmitBenchConfig struct {
	// Workers is the synthetic fleet size; Groups co-location groups of
	// Workers/Groups machines each are seeded with two jobs apiece.
	Workers int
	Groups  int
	// HeldJobs is the size of the admission flood: jobs enqueued against
	// the full cluster, every one held.
	HeldJobs int
	// ChurnRounds completes one seeded job per round and times the drain
	// pass that re-evaluates the held queue against the vacated slot.
	ChurnRounds int
}

func (c AdmitBenchConfig) withDefaults() AdmitBenchConfig {
	if c.Workers <= 0 {
		c.Workers = 1000
	}
	if c.Groups <= 0 {
		c.Groups = 50
	}
	if c.HeldJobs <= 0 {
		c.HeldJobs = 10000
	}
	if c.ChurnRounds <= 0 {
		c.ChurnRounds = 5
	}
	return c
}

// AdmitBenchResult reports one run's measurements.
type AdmitBenchResult struct {
	Workers     int `json:"workers"`
	SeedJobs    int `json:"seed_jobs"`
	HeldJobs    int `json:"held_jobs"`
	ChurnRounds int `json:"churn_rounds"`

	// Enqueue latency over the held flood: each sample is one full
	// admission decision (arrival rule + fair gates) that ends in a hold.
	EnqueueP50Micros float64 `json:"enqueue_p50_micros"`
	EnqueueP99Micros float64 `json:"enqueue_p99_micros"`
	EnqueueSeconds   float64 `json:"enqueue_seconds"`

	// Drain figures over the churn rounds: every round re-evaluates the
	// whole held queue, admitting into the slot the completion vacated.
	DrainSeconds     float64 `json:"drain_seconds"`
	Admissions       int64   `json:"admissions"`
	AdmissionsPerSec float64 `json:"admissions_per_sec"`
	// HoldEvalsPerSec is drain throughput in held-candidate evaluations
	// per second (each round scans the full queue at least once).
	HoldEvalsPerSec float64 `json:"hold_evals_per_sec"`
	// FullScoreCalls counts full-plan Options.Score evaluations across
	// the flood and churn phases: 0 by construction, since admission
	// scores incrementally.
	FullScoreCalls int64 `json:"full_score_calls"`
}

func benchSpec(name string, minW, maxW int) JobSpec {
	return JobSpec{
		Name:       name,
		Config:     mlapp.Config{Kind: mlapp.MLR, Features: 12, Classes: 3, Rows: 96, LearningRate: 0.2},
		Iterations: 1000,
		MinWorkers: minW,
		MaxWorkers: maxW,
	}
}

// RunAdmitBench executes one benchmark run against a fresh master.
func RunAdmitBench(cfg AdmitBenchConfig) (AdmitBenchResult, error) {
	cfg = cfg.withDefaults()
	groupSize := cfg.Workers / cfg.Groups
	if groupSize < 1 {
		return AdmitBenchResult{}, fmt.Errorf("admitbench: %d workers cannot fill %d groups", cfg.Workers, cfg.Groups)
	}
	res := AdmitBenchResult{
		Workers: cfg.Workers, SeedJobs: 2 * cfg.Groups,
		HeldJobs: cfg.HeldJobs, ChurnRounds: cfg.ChurnRounds,
	}

	// Two jobs per group is the steady state: the cap makes full groups
	// infeasible for the arrival rule, so the flood holds deterministically
	// and each churn completion vacates exactly one slot.
	m, err := New("127.0.0.1:0", core.Options{MaxJobsPerGroup: 2})
	if err != nil {
		return res, err
	}
	defer m.Close()
	// Park the background drainer: the benchmark invokes drainQueue
	// synchronously so each pass can be timed.
	m.drainStopOnce.Do(func() { close(m.drainStop) })

	// One stub RPC server acks deploy/teardown for the entire fleet; all
	// synthetic workers share one dialed client.
	stub := rpc.NewServer()
	stub.Handle(worker.MethodLoadJob, rpc.Typed(func(worker.LoadJobArgs) (worker.Ack, error) {
		return worker.Ack{}, nil
	}))
	stub.Handle(worker.MethodStartJob, rpc.Typed(func(worker.StartJobArgs) (worker.Ack, error) {
		return worker.Ack{}, nil
	}))
	stub.Handle(worker.MethodDropJob, rpc.Typed(func(worker.DropJobArgs) (worker.Ack, error) {
		return worker.Ack{}, nil
	}))
	stub.Handle(ps.MethodDrop, rpc.Typed(func(ps.DropArgs) (ps.Ack, error) {
		return ps.Ack{}, nil
	}))
	stubAddr, err := stub.Listen("127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer stub.Close()
	client, err := rpc.Dial(stubAddr, time.Minute)
	if err != nil {
		return res, err
	}
	m.mu.Lock()
	for i := 0; i < cfg.Workers; i++ {
		m.workers = append(m.workers,
			workerRef{name: fmt.Sprintf("w%04d", i), addr: stubAddr, client: client})
	}
	m.admitEpoch++
	m.mu.Unlock()

	// Seed phase. First wave: comp-heavy jobs take the free path, carving
	// the fleet into Groups gangs of groupSize. Second wave: complementary
	// net-heavy jobs, each admitted by the arrival rule into a one-job
	// group (raising its net utilization raises the cluster score).
	for i := 0; i < 2*cfg.Groups; i++ {
		var prof Profile
		if i < cfg.Groups {
			prof = Profile{
				CompSeconds: float64(groupSize) * (0.45 + 0.01*float64(i%5)),
				NetSeconds:  0.08 + 0.002*float64(i%7),
			}
		} else {
			prof = Profile{
				CompSeconds: float64(groupSize) * 0.05,
				NetSeconds:  0.30 + 0.002*float64(i%7),
			}
		}
		adm, err := m.Enqueue(benchSpec(fmt.Sprintf("seed%04d", i), groupSize, groupSize), prof)
		if err != nil {
			return res, fmt.Errorf("admitbench: seed %d: %w", i, err)
		}
		if !adm.Admitted {
			return res, fmt.Errorf("admitbench: seed job %d held (wave misconfigured)", i)
		}
	}

	scoreCalls := core.FullScoreCalls()

	// Flood phase: HeldJobs arrivals against a full cluster. Every one
	// walks the arrival rule over all groups, fails the cap, finds no free
	// workers, and holds. Each Enqueue is one latency sample.
	lat := make([]time.Duration, cfg.HeldJobs)
	floodStart := time.Now()
	for i := 0; i < cfg.HeldJobs; i++ {
		prof := Profile{
			CompSeconds: float64(groupSize) * 0.04,
			NetSeconds:  0.25 + 0.001*float64(i%11),
		}
		t0 := time.Now()
		adm, err := m.Enqueue(benchSpec(fmt.Sprintf("held%05d", i), 1, groupSize), prof)
		lat[i] = time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("admitbench: flood %d: %w", i, err)
		}
		if adm.Admitted {
			return res, fmt.Errorf("admitbench: flood job %d admitted into a full cluster", i)
		}
	}
	res.EnqueueSeconds = time.Since(floodStart).Seconds()
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	res.EnqueueP50Micros = float64(lat[len(lat)/2].Microseconds())
	res.EnqueueP99Micros = float64(lat[len(lat)*99/100].Microseconds())

	// Churn phase: complete one second-wave seed job per round, then time
	// the synchronous drain pass that re-scores the held queue against the
	// vacated slot.
	drainedBefore := m.Counters().QueueDrained
	var drain time.Duration
	for r := 0; r < cfg.ChurnRounds; r++ {
		name := fmt.Sprintf("seed%04d", cfg.Groups+r)
		m.mu.Lock()
		j, ok := m.jobs[name]
		if !ok {
			m.mu.Unlock()
			return res, fmt.Errorf("admitbench: churn victim %s missing", name)
		}
		epoch := j.epoch
		members := make([]string, len(j.workers))
		for i, wi := range j.workers {
			members[i] = m.workers[wi].name
		}
		m.mu.Unlock()
		for _, w := range members {
			m.handleJobDone(worker.JobDoneArgs{Job: name, Worker: w, Epoch: epoch})
		}
		t0 := time.Now()
		m.drainQueue()
		drain += time.Since(t0)
	}
	res.DrainSeconds = drain.Seconds()
	res.Admissions = m.Counters().QueueDrained - drainedBefore
	if res.DrainSeconds > 0 {
		res.AdmissionsPerSec = float64(res.Admissions) / res.DrainSeconds
		// Each round scans the held queue at least once before giving up;
		// this understates evaluations slightly (admit-terminated passes
		// rescan) and is comparable across runs.
		res.HoldEvalsPerSec = float64(cfg.ChurnRounds) * float64(cfg.HeldJobs) / res.DrainSeconds
	}
	res.FullScoreCalls = core.FullScoreCalls() - scoreCalls
	return res, nil
}
