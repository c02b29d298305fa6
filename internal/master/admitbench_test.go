package master

import "testing"

// TestAdmitBenchSmall runs the -bench-admit harness at toy scale,
// pinning the invariants the full-scale run relies on: the seed waves
// all place, the flood all holds, churn rounds admit from the queue, and
// admission performs zero full-plan Score recomputations across flood
// and churn.
func TestAdmitBenchSmall(t *testing.T) {
	cfg := AdmitBenchConfig{Workers: 40, Groups: 4, HeldJobs: 60, ChurnRounds: 2}
	res, err := RunAdmitBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admissions < int64(cfg.ChurnRounds) {
		t.Errorf("%d admissions over %d churn rounds, want >= %d",
			res.Admissions, cfg.ChurnRounds, cfg.ChurnRounds)
	}
	if res.FullScoreCalls != 0 {
		t.Errorf("admission performed %d full Score calls, want 0", res.FullScoreCalls)
	}
	if res.EnqueueP99Micros < res.EnqueueP50Micros {
		t.Errorf("p99 %v < p50 %v", res.EnqueueP99Micros, res.EnqueueP50Micros)
	}
}
