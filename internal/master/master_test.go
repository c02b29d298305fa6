package master

import (
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
	"harmony/internal/worker"
)

// cluster spins up a master and n live workers over loopback TCP.
func cluster(t *testing.T, n int) *Master {
	t.Helper()
	m, _ := clusterWorkers(t, n)
	return m
}

// clusterWorkers is cluster that also returns the workers, w0 first.
func clusterWorkers(t *testing.T, n int) (*Master, []*worker.Worker) {
	t.Helper()
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ws := make([]*worker.Worker, n)
	for i := range ws {
		w, _, err := worker.New(
			"w"+string(rune('0'+i)), "127.0.0.1:0", m.Addr(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		ws[i] = w
	}
	if err := m.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return m, ws
}

func spec(name string, kind mlapp.Kind, iters int) JobSpec {
	return JobSpec{
		Name:       name,
		Config:     mlapp.Config{Kind: kind, Features: 12, Classes: 3, Rows: 96, LearningRate: 0.2},
		Iterations: iters,
		Seed:       7,
	}
}

func TestSingleJobTrainsToCompletion(t *testing.T) {
	m := cluster(t, 3)
	if err := m.Submit(spec("mlr-1", mlapp.MLR, 8), nil); err != nil {
		t.Fatal(err)
	}
	// Capture an early loss, then wait for completion. Poll tightly and
	// only accept a genuinely early iteration: the binary data plane can
	// finish all 8 iterations in a few milliseconds, and sampling a late
	// loss here would compare the final loss against itself.
	var earlyLoss float64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, iter, loss, err := m.Status("mlr-1")
		if err != nil {
			t.Fatal(err)
		}
		if iter >= 1 && iter <= 3 && loss > 0 {
			earlyLoss = loss
			break
		}
		if iter > 3 || status == StatusFinished {
			break // job outran the poller; skip the improvement check
		}
	}
	if err := m.WaitJob("mlr-1", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	status, iter, finalLoss, err := m.Status("mlr-1")
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusFinished {
		t.Errorf("status = %v, want finished", status)
	}
	if iter != 7 {
		t.Errorf("last iteration = %d, want 7", iter)
	}
	if earlyLoss > 0 && finalLoss >= earlyLoss {
		t.Errorf("loss did not improve: %.4f -> %.4f", earlyLoss, finalLoss)
	}
}

func TestTwoJobsCoLocated(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("mlr", mlapp.MLR, 6), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(spec("lasso", mlapp.Lasso, 6), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("mlr", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("lasso", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Both jobs produced profiling metrics through the barrier.
	for _, name := range []string{"mlr", "lasso"} {
		met, ok := m.Metrics(name)
		if !ok || !met.Profiled() {
			t.Errorf("job %s not profiled (ok=%v, samples=%d)", name, ok, met.Samples)
		}
		if met.CompMachineSeconds <= 0 || met.NetSeconds < 0 {
			t.Errorf("job %s metrics implausible: %+v", name, met)
		}
	}
}

func TestPauseCheckpointResumeMigration(t *testing.T) {
	m := cluster(t, 3)
	if err := m.Submit(spec("nmf", mlapp.NMF, 50), nil); err != nil {
		t.Fatal(err)
	}
	// Let a few iterations pass, then pause.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		_, iter, _, _ := m.Status("nmf")
		if iter >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkpoint, err := m.Pause("nmf", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoint) != spec("nmf", mlapp.NMF, 1).Config.ModelSize() {
		t.Fatalf("checkpoint size %d", len(checkpoint))
	}
	status, pausedIter, _, _ := m.Status("nmf")
	if status != StatusPaused {
		t.Fatalf("status after pause = %v", status)
	}

	// Migrate to a smaller group (§IV-B4) and cut the run short so the
	// test finishes quickly.
	m.mu.Lock()
	m.jobs["nmf"].spec.Iterations = pausedIter + 3
	m.mu.Unlock()
	if err := m.Resume("nmf", []string{"w0", "w1"}, checkpoint); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("nmf", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	_, finalIter, _, _ := m.Status("nmf")
	if finalIter <= pausedIter {
		t.Errorf("no progress after migration: %d -> %d", pausedIter, finalIter)
	}
}

func TestPlanGroups(t *testing.T) {
	m := cluster(t, 4)
	if err := m.Submit(spec("a", mlapp.MLR, 8), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(spec("b", mlapp.Lasso, 8), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("a", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("b", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	groups, err := m.PlanGroups()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for job, members := range groups {
		if len(members) == 0 {
			t.Errorf("job %s assigned no workers", job)
		}
		seen++
	}
	if seen == 0 {
		t.Error("plan placed no jobs")
	}
}

func TestWorkerStats(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("mlr", mlapp.MLR, 5), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("mlr", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	cpu, net, err := m.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 || net <= 0 {
		t.Errorf("worker utilization = (%v, %v), want positive", cpu, net)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := cluster(t, 1)
	if err := m.Submit(JobSpec{}, nil); err == nil {
		t.Error("empty spec accepted")
	}
	if err := m.Submit(spec("dup", mlapp.MLR, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(spec("dup", mlapp.MLR, 3), nil); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate submit = %v", err)
	}
	if err := m.Submit(spec("ghost", mlapp.MLR, 3), []string{"nope"}); err == nil {
		t.Error("unknown worker group accepted")
	}
	if err := m.WaitJob("dup", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("missing", time.Second); err == nil {
		t.Error("WaitJob on unknown job succeeded")
	}
}

func TestDuplicateWorkerName(t *testing.T) {
	m := cluster(t, 1)
	if _, _, err := worker.New("w0", "127.0.0.1:0", m.Addr(), t.TempDir()); err == nil {
		t.Error("duplicate worker name accepted")
	}
}
