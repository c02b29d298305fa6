package master_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/master"
	"harmony/internal/mlapp"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// TestBarrierRejectsNonFiniteProfileSamples drives the master's barrier
// over the wire with binary frames for a one-worker job: samples with
// NaN or infinite subtask seconds still pass the barrier but are counted
// as profile rejects (and exported on /metrics) instead of being folded
// into the job's profile; a malformed frame fails only its own call.
func TestBarrierRejectsNonFiniteProfileSamples(t *testing.T) {
	m, err := master.New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	stubWorker(t, m, "s0", "ok", &dropLog{}, nil)
	if err := m.Submit(master.JobSpec{
		Name:       "job",
		Config:     mlapp.Config{Kind: mlapp.MLR, Features: 12, Classes: 3, Rows: 96, LearningRate: 0.2},
		Iterations: 10,
	}, nil); err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(m.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	barrier := func(a worker.BarrierArgs) (worker.Directive, error) {
		reply, err := c.Call(worker.MethodBarrier, worker.AppendBarrierArgs(nil, a), 5*time.Second)
		if err != nil {
			return 0, err
		}
		return worker.ReadDirective(reply)
	}

	samples := []struct{ comp, net float64 }{
		{math.NaN(), 0.001}, {0.001, math.Inf(1)}, {math.Inf(-1), 0.001}, {0.002, 0.001},
	}
	for i, s := range samples {
		d, err := barrier(worker.BarrierArgs{Job: "job", Worker: "s0", Iteration: i, Epoch: 1,
			CompSeconds: s.comp, NetSeconds: s.net, Loss: math.NaN()})
		if err != nil || d != worker.Continue {
			t.Fatalf("barrier %d: directive %d, err %v; want continue", i, d, err)
		}
	}
	if _, err := c.Call(worker.MethodBarrier, []byte{1, 0}, 5*time.Second); err == nil {
		t.Error("truncated barrier frame accepted")
	}
	if d, err := barrier(worker.BarrierArgs{Job: "job", Worker: "s0", Iteration: 9, Epoch: 7}); err != nil || d != worker.Stop {
		t.Errorf("stale-epoch barrier: directive %d, err %v; want stop", d, err)
	}

	if got := m.Counters().ProfileRejects; got != 3 {
		t.Errorf("ProfileRejects = %d, want 3", got)
	}
	if met, ok := m.Metrics("job"); !ok || met.Samples != 1 || math.IsNaN(met.CompMachineSeconds) {
		t.Errorf("profile after 3 rejected and 1 valid sample: %+v (ok %v), want 1 finite sample", met, ok)
	}
	w := httptest.NewRecorder()
	ctl.New(m).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(w.Body.String(), "\nharmony_profile_rejects_total 3\n") {
		t.Errorf("/metrics lacks harmony_profile_rejects_total 3:\n%s", w.Body.String())
	}
	if err := m.Cancel("job"); err != nil {
		t.Fatal(err)
	}
}
