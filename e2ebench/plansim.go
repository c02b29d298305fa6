package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"harmony/internal/core"
	"harmony/internal/sim"
	"harmony/internal/simtime"
	"harmony/internal/trace"
	"harmony/internal/workload"
)

// The §V-F scalability instance: 8K profiled jobs on 10K machines, drawn
// from the base workload's cost range, scheduled with the paper's
// memory cap and co-location limit.
const (
	scaleJobs     = 8000
	scaleMachines = 10000
	// simMachines and simMeanArrival size the sim.Run: the 80-job base
	// workload on the evaluation's 100 machines, arriving as a Poisson
	// process with a 4-minute mean gap.
	simMachines    = 100
	simMeanArrival = 4 * simtime.Minute
	// goldenSeed draws the canonical instance whose outputs are pinned in
	// golden/plansim.json.
	goldenSeed = 1
	// planSimInstances is how many instances a run draws from its seed
	// and cycles through: Algorithm 1's search length depends on the
	// instance, so one instance would make the timing a property of the
	// seed.
	planSimInstances = 4
)

var scaleOpts = core.Options{MemoryCapGB: 25, MaxJobsPerGroup: 4}

// goldenPath is relative to the module root the benchmark runs from.
var goldenPath = filepath.Join("e2ebench", "golden", "plansim.json")

// planSimInput is one generated plan-sim instance.
type planSimInput struct {
	jobs    []core.JobInfo
	simJobs []sim.Job
	simSeed int64
}

func planSimInputs(seed int64) planSimInput {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]core.JobInfo, scaleJobs)
	for i := range jobs {
		jobs[i] = core.JobInfo{
			ID:   fmt.Sprintf("s%d", i),
			Comp: 500 + rng.Float64()*10000,
			Net:  30 + rng.Float64()*400,
		}
	}
	specs := workload.Base()
	arrivals := trace.Poisson(len(specs), simMeanArrival, seed)
	return planSimInput{jobs: jobs, simJobs: sim.Jobs(specs, arrivals), simSeed: seed}
}

// golden is the pinned output of the canonical instance.
type golden struct {
	Seed         int64   `json:"seed"`
	PlanGroups   int     `json:"plan_groups"`
	PlanMachines int     `json:"plan_machines"`
	PlanSHA256   string  `json:"plan_sha256"`
	SimJobs      int     `json:"sim_jobs"`
	SimMeanJCTs  float64 `json:"sim_mean_jct_s"`
	SimMakespanS float64 `json:"sim_makespan_s"`
	SimSHA256    string  `json:"sim_sha256"`
}

// planDigest checks a plan's structure and hashes it. Algorithm 1
// places a prefix of its input (the rest keep waiting), so the placed
// jobs must be exactly the first k inputs, each once, in non-empty
// groups using no more machines than exist.
func planDigest(p core.Plan, jobs []core.JobInfo) (string, error) {
	h := sha256.New()
	seen := make(map[string]bool, len(jobs))
	machines := 0
	for _, g := range p.Groups {
		if len(g.Jobs) == 0 || g.Machines < 1 {
			return "", checkFailed("plan has an empty group (%d jobs, %d machines)", len(g.Jobs), g.Machines)
		}
		machines += g.Machines
		fmt.Fprintf(h, "g %d\n", g.Machines)
		for _, j := range g.Jobs {
			if seen[j.ID] {
				return "", checkFailed("plan places job %s twice", j.ID)
			}
			seen[j.ID] = true
			fmt.Fprintf(h, "%s\n", j.ID)
		}
	}
	if len(seen) == 0 {
		return "", checkFailed("plan places no job")
	}
	for _, j := range jobs[:min(len(seen), len(jobs))] {
		if !seen[j.ID] {
			return "", checkFailed("plan places %d jobs but not job %s of that prefix", len(seen), j.ID)
		}
	}
	if machines > scaleMachines {
		return "", checkFailed("plan uses %d of %d machines", machines, scaleMachines)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// simDigest checks a simulation's completeness and hashes its summary
// and every job record.
func simDigest(r *sim.Result, jobs int) (string, error) {
	if len(r.Failed) > 0 {
		return "", checkFailed("simulation failed %d jobs", len(r.Failed))
	}
	if len(r.Records) != jobs {
		return "", checkFailed("simulation finished %d of %d jobs", len(r.Records), jobs)
	}
	h := sha256.New()
	put := func(h hash.Hash, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(h, uint64(r.Summary.MeanJCT))
	put(h, uint64(r.Summary.Makespan))
	put(h, math.Float64bits(r.Summary.CPUUtil))
	put(h, math.Float64bits(r.Summary.NetUtil))
	for _, rec := range r.Records {
		fmt.Fprintf(h, "%s %d %d %d\n", rec.ID, rec.Submit, rec.Start, rec.Finish)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func simConfig(seed int64, mode sim.Mode) sim.Config {
	return sim.Config{Machines: simMachines, Mode: mode, Seed: seed}
}

// canonical runs the golden instance once.
func canonical(spans *spanLog) (golden, error) {
	in := planSimInputs(goldenSeed)
	var plan core.Plan
	spans.around("core", "Schedule", func() error { plan = core.Schedule(in.jobs, scaleMachines, scaleOpts); return nil })
	pd, err := planDigest(plan, in.jobs)
	if err != nil {
		return golden{}, err
	}
	var r *sim.Result
	err = spans.around("sim", "Run", func() error {
		r, err = sim.Run(simConfig(in.simSeed, sim.ModeHarmony), in.simJobs)
		return err
	})
	if err != nil {
		return golden{}, err
	}
	sd, err := simDigest(r, len(in.simJobs))
	if err != nil {
		return golden{}, err
	}
	return golden{
		Seed: goldenSeed, PlanGroups: len(plan.Groups), PlanMachines: plan.TotalMachines(), PlanSHA256: pd,
		SimJobs: len(r.Records), SimMeanJCTs: r.Summary.MeanJCT.Seconds(),
		SimMakespanS: r.Summary.Makespan.Seconds(), SimSHA256: sd,
	}, nil
}

func loadGolden() (golden, error) {
	var g golden
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return g, err
	}
	return g, json.Unmarshal(raw, &g)
}

// writeGolden pins the current code's canonical outputs.
func writeGolden() error {
	g, err := canonical(nil)
	if err != nil {
		return err
	}
	body, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(body, '\n'), 0o644)
}

// runPlanSim times rounds of core.Schedule on a §V-F instance plus one
// sim.Run of the 80-job workload, cycling over planSimInstances
// instances drawn from --seed. Set-up generates the inputs and
// reproduces the canonical instance's golden outputs. Every round must
// reproduce the first round of its instance; traced runs also count
// allocations and time the Isolated mode, the sim path that bypasses
// Algorithm 1.
func runPlanSim(cfg runConfig, res *result) error {
	want, err := loadGolden()
	if err != nil {
		return fmt.Errorf("golden outputs: %w", err)
	}
	var secs []float64
	var ins []planSimInput
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		ins = ins[:0]
		for k := int64(0); k < planSimInstances; k++ {
			ins = append(ins, planSimInputs(cfg.seed*planSimInstances+k))
		}
		res.ledger.attempt()
		got, err := canonical(res.spans)
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			res.ledger.fail(err)
			continue
		}
		if got != want {
			res.ledger.fail(checkFailed("canonical instance: got %+v, golden %+v", got, want))
			continue
		}
		res.ledger.note(OutcomeOK, "")
	}
	res.set("setup_s", "s", pct(secs, 0.5))
	res.sample("setup_s", "s", secs)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var planMs, simMs, roundMs, isoMs, planAllocs, simAllocs []float64
	firstPlan := make([]string, len(ins))
	firstSim := make([]string, len(ins))
	start := time.Now()
	for round := 0; time.Since(start) < dur; round++ {
		in := ins[round%len(ins)]
		res.ledger.attempt()
		var m0, m1, m2 runtime.MemStats
		if cfg.trace {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		var plan core.Plan
		res.spans.around("core", "Schedule", func() error {
			plan = core.Schedule(in.jobs, scaleMachines, scaleOpts)
			return nil
		})
		t1 := time.Now()
		if cfg.trace {
			runtime.ReadMemStats(&m1)
		}
		var r *sim.Result
		err := res.spans.around("sim", "Run", func() error {
			var err error
			r, err = sim.Run(simConfig(in.simSeed, sim.ModeHarmony), in.simJobs)
			return err
		})
		t2 := time.Now()
		if cfg.trace {
			runtime.ReadMemStats(&m2)
		}
		if err != nil {
			res.ledger.fail(err)
			continue
		}
		planMs = append(planMs, ms(t1.Sub(t0)))
		simMs = append(simMs, ms(t2.Sub(t1)))
		roundMs = append(roundMs, ms(t2.Sub(t0)))
		if cfg.trace {
			planAllocs = append(planAllocs, float64(m1.Mallocs-m0.Mallocs))
			simAllocs = append(simAllocs, float64(m2.Mallocs-m1.Mallocs))
			t3 := time.Now()
			err := res.spans.around("sim", "Run isolated", func() error {
				_, err := sim.Run(simConfig(in.simSeed, sim.ModeIsolated), in.simJobs)
				return err
			})
			if err != nil {
				res.ledger.fail(err)
				continue
			}
			isoMs = append(isoMs, ms(time.Since(t3)))
		}
		pd, err := planDigest(plan, in.jobs)
		if err != nil {
			res.ledger.fail(err)
			continue
		}
		sd, err := simDigest(r, len(in.simJobs))
		if err != nil {
			res.ledger.fail(err)
			continue
		}
		k := round % len(ins)
		if firstPlan[k] == "" {
			firstPlan[k], firstSim[k] = pd, sd
		}
		if pd != firstPlan[k] || sd != firstSim[k] {
			res.ledger.fail(checkFailed("round %d: plan or simulation of instance %d differs from its first round", round, k))
			continue
		}
		res.ledger.note(OutcomeOK, "")
	}
	elapsed := time.Since(start).Seconds()
	res.set("throughput_per_s", "1/s", ratio(float64(len(roundMs)), elapsed))
	res.set("latency_p50_ms", "ms", pct(roundMs, 0.5))
	res.set("round_ms_p95", "ms", pct(roundMs, 0.95))
	res.set("plan_ms_p50", "ms", pct(planMs, 0.5))
	res.set("sim_run_ms_p50", "ms", pct(simMs, 0.5))
	res.set("core.plan_ms_p50", "ms", pct(planMs, 0.5))
	res.set("sim.run_ms_p50", "ms", pct(simMs, 0.5))
	res.sample("round_ms", "ms", roundMs)
	res.sample("plan_ms", "ms", planMs)
	res.sample("sim_run_ms", "ms", simMs)
	if cfg.trace {
		res.set("core.schedule_allocs", "count", pct(planAllocs, 0.5))
		res.set("sim.run_allocs", "count", pct(simAllocs, 0.5))
		res.set("sim.isolated_run_ms", "ms", pct(isoMs, 0.5))
		res.sample("isolated_run_ms", "ms", isoMs)
	}
	res.notef("%d rounds over %d instances in %.2f s", len(roundMs), len(ins), elapsed)
	return nil
}
