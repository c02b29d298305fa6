// Command e2ebench is the repository's end-to-end benchmark. It boots an
// in-process Harmony cluster (one master, four workers, the HTTP control
// plane, all over real TCP on localhost) and drives one workload through
// it, or — for plan-sim — calls the scheduler and the simulator
// directly. It checks every output, prints each metric by name with its
// unit, writes an environment record, and ends with one JSON result line.
//
//	e2ebench --workload iter-bound --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics from a
// traced run (plus, for iter-bound and colocated-mixed, an untraced run
// of the same length for the tracing overhead). README.md maps every
// metric to its workload and layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// A workload runs set-up and its measured phase and fills in a result.
type workloadDef struct {
	name string
	why  string
	run  func(cfg runConfig, res *result) error
}

var workloads = []workloadDef{
	{"iter-bound", "tiny 4-worker MLR/Lasso jobs: fixed per-iteration costs (barrier round trip, executor hand-offs, small frames) dominate", runIterBound},
	{"colocated-mixed", "COMP-heavy NMF/LDA co-located with COMM-heavy wide MLR: the paper's overlapping COMP/COMM case; ps, codec and kernels dominate", runColocated},
	{"arrival-churn", "open-loop Poisson arrivals over POST /v1/jobs plus a status poller: ctl, admission, synchronous deploy, completion and drain", runChurn},
	{"plan-sim", "Algorithm 1 on the 8K-job/10K-machine instance plus sim.Run of the 80-job workload: core and sim, which the live runs barely reach", runPlanSim},
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is this run's scratch directory inside the checkout (spill
	// files); removed when the run ends.
	dir string
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var cfg runConfig
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (iter-bound, colocated-mixed, arrival-churn, plan-sim)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	update := flag.Bool("update-golden", false, "rewrite plan-sim's golden outputs from the current code and exit")
	flag.Parse()
	if *update {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		fmt.Println("wrote", goldenPath)
		return 0
	}
	cfg.seconds = float64(seconds)
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", cfg.workload)
		return 2
	}

	cfg.dir = fmt.Sprintf("%s/run-%d-%d", outDir, os.Getpid(), time.Now().UnixNano())
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	res := newResult(cfg)
	heap := startHeapSampler()
	err := wl.run(cfg, res)
	peak := heap.stop()
	if err != nil {
		// An infrastructure error voids the run: no result line.
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.set("peak_heap_mb", "MB", float64(peak)/(1<<20))
	res.set("bench.fail_ratio", "ratio", res.ledger.failRatio())

	res.printReport(os.Stdout)
	rec := res.record(wl.why)
	if path, err := writeRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: writing record:", err)
	} else {
		fmt.Printf("record written to %s\n", path)
	}
	line, err := json.Marshal(res.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// outDir holds records and per-run scratch files. It sits under the
// build directory, which the repository's .gitignore excludes.
const outDir = ".bench_build/e2ebench"

// endToEnd and perLayer are the metric sets of BENCHMARK.json, in order.
// A result reports every one of its set; a layer a workload does not
// exercise reports 0 and is listed as n/a in the report.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"iter.wall_ms", "ms"},
	{"iter.comp_ms", "ms"},
	{"iter.pull_ms", "ms"},
	{"iter.push_ms", "ms"},
	{"iter.wait_cpu_ms", "ms"},
	{"iter.wait_net_ms", "ms"},
	{"iter.barrier_ms", "ms"},
	{"iter.residual_ms", "ms"},
	{"iter.overlap_ratio", "ratio"},
	{"rpc.pull_bytes_per_iter", "bytes"},
	{"rpc.push_bytes_per_iter", "bytes"},
	{"rpc.pull_ms_per_op", "ms"},
	{"rpc.push_ms_per_op", "ms"},
	{"ps.lock_wait_ms_per_iter", "ms"},
	{"ps.stripe_ops_per_iter", "count"},
	{"worker.block_cache_hit_ratio", "ratio"},
	{"memstore.reload_stall_ms_per_iter", "ms"},
	{"ctl.submit_ms_p50", "ms"},
	{"ctl.submit_ms_p95", "ms"},
	{"ctl.status_ms_p95", "ms"},
	{"master.admit_ms_p50", "ms"},
	{"master.admit_ms_p95", "ms"},
	{"master.held_ratio", "ratio"},
	{"master.queue_wait_ms_p50", "ms"},
	{"master.deploy_ms_p50", "ms"},
	{"worker.retained_goroutines_per_job", "count"},
	{"worker.retained_heap_kb_per_job", "KB"},
	{"core.predict_error_ratio", "ratio"},
	{"core.plan_ms_p50", "ms"},
	{"core.schedule_allocs", "count"},
	{"sim.run_ms_p50", "ms"},
	{"sim.run_allocs", "count"},
	{"sim.isolated_run_ms", "ms"},
	{"obs.overhead_ratio", "ratio"},
	{"obs.spans_lost", "count"},
	{"gen.late_ms_max", "ms"},
	{"bench.fail_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// envInfo is the environment half of a run record.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func environment() envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		SourceHash: sourceHash(),
	}
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
