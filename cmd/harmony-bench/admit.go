package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"harmony/internal/master"
)

// Admission benchmark (-bench-admit): the cluster-scale run of DESIGN.md
// §15. A live master is seeded with 100 jobs across 50 groups of 20
// machines (1K workers behind a stub RPC fleet), then flooded with 10K
// held arrivals and churned through completions that each trigger a full
// drain pass over the held queue. The headline metrics are drain
// admissions/sec and Enqueue p50/p99 latency, compared with the
// previous committed BENCH_admit.json.

// admitReport is the machine-readable record written to BENCH_admit.json;
// future PRs diff against it.
type admitReport struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Timestamp  string `json:"timestamp"`
	master.AdmitBenchResult
}

func runBenchAdmit(path string) error {
	report := admitReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Println("benchmarking admission: 1K workers, 50 groups, 10K held arrivals, completion churn...")

	var err error
	if report.AdmitBenchResult, err = master.RunAdmitBench(master.AdmitBenchConfig{}); err != nil {
		return err
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	r := report.AdmitBenchResult
	fmt.Printf("\n  %12s %12s %12s %12s %12s %12s\n",
		"ENQ_P50(µs)", "ENQ_P99(µs)", "DRAIN(s)", "ADMITS", "ADMITS/s", "SCORE_CALLS")
	fmt.Printf("  %12.0f %12.0f %12.3f %12d %12.0f %12d\n",
		r.EnqueueP50Micros, r.EnqueueP99Micros, r.DrainSeconds,
		r.Admissions, r.AdmissionsPerSec, r.FullScoreCalls)
	fmt.Printf("  wrote %s\n", path)
	return nil
}
