package master

import (
	"strings"
	"testing"
	"time"

	"harmony/internal/mlapp"
	"harmony/internal/ps"
)

// stripesByServer flattens a cluster scrape into server-name -> stripe
// count for one job.
func stripesByServer(cs ps.ClusterStats, job string) map[string]int {
	out := make(map[string]int)
	for _, srv := range cs.Servers {
		for _, js := range srv.Jobs {
			if js.Job == job {
				out[srv.Name] += len(js.Stripes)
			}
		}
	}
	return out
}

// TestElasticPSResizeLive shrinks a running job's parameter-server set
// to a single worker mid-training: the drained servers' stripes must
// live-migrate to the survivor, the workers must follow, and training
// must still finish.
func TestElasticPSResizeLive(t *testing.T) {
	m := cluster(t, 3)
	if err := m.Submit(spec("nmf", mlapp.NMF, 5000), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		_, iter, _, _ := m.Status("nmf")
		if iter >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	cs, err := m.PSStats()
	if err != nil {
		t.Fatal(err)
	}
	before := stripesByServer(cs, "nmf")
	total := 0
	for _, n := range before {
		total += n
	}
	if total == 0 {
		t.Fatalf("no nmf stripes in scrape: %+v", cs)
	}

	if err := m.ResizeJobServers("nmf", []string{"w0"}); err != nil {
		t.Fatal(err)
	}
	cs, err = m.PSStats()
	if err != nil {
		t.Fatal(err)
	}
	after := stripesByServer(cs, "nmf")
	for srv, n := range after {
		if srv != "w0" && n > 0 {
			t.Errorf("server %s still holds %d nmf stripes after resize (before %+v, after %+v)",
				srv, n, before, after)
		}
	}
	if after["w0"] != total {
		t.Errorf("w0 holds %d stripes after resize, want all %d", after["w0"], total)
	}
	var resized *Event
	for _, ev := range m.Events() {
		if ev.Kind == EventPSResize && ev.Job == "nmf" {
			e := ev
			resized = &e
		}
	}
	if resized == nil {
		t.Fatal("no ps_resize event journaled")
	}
	if !strings.Contains(resized.Note, "-> 1") {
		t.Errorf("resize note = %q, want server count -> 1", resized.Note)
	}

	// Cut the run short; training must complete against the shrunk set.
	_, iter, _, _ := m.Status("nmf")
	m.mu.Lock()
	m.jobs["nmf"].spec.Iterations = iter + 3
	m.mu.Unlock()
	if err := m.WaitJob("nmf", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if status, _, _, _ := m.Status("nmf"); status != StatusFinished {
		t.Errorf("status after resize = %v, want finished", status)
	}
}

// TestRebalancePSBalanced runs manual rebalance rounds against an
// evenly-loaded live cluster: nothing should move, and the background
// loop must start and stop cleanly under Close.
func TestRebalancePSBalanced(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("mlr", mlapp.MLR, 6), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		moves, done, err := m.RebalancePS(ps.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(moves) != 0 || done != 0 {
			t.Errorf("round %d planned %v on a balanced cluster", i, moves)
		}
	}
	m.StartPSRebalancer(10*time.Millisecond, ps.PlanOptions{})
	m.StartPSRebalancer(10*time.Millisecond, ps.PlanOptions{}) // idempotent
	if err := m.WaitJob("mlr", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the loop take a few ticks
}

// TestCompletionTeardownDropsStripes runs a job to completion on a live
// cluster: once WaitJob returns, the completion teardown must release
// the job's PS partitions, so a scrape eventually lists no stripes for
// it — and a healthy teardown records no failure.
func TestCompletionTeardownDropsStripes(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("done", mlapp.MLR, 6), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("done", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cs, err := m.PSStats()
		if err != nil {
			t.Fatal(err)
		}
		left := stripesByServer(cs, "done")
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stripes still held after completion: %v", left)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.Counters().TeardownFailures; got != 0 {
		t.Errorf("TeardownFailures = %d after a healthy completion, want 0", got)
	}
	if evs := m.EventsSince(0, EventTeardownFailed); len(evs) != 0 {
		t.Errorf("healthy completion journaled %+v", evs)
	}
}

// TestPlacementRefsIncludeResizedServers pins that a teardown reaches
// every server holding the job's partitions: after an elastic resize
// onto a worker outside the group, that worker is part of the placement
// too, listed once.
func TestPlacementRefsIncludeResizedServers(t *testing.T) {
	m := &Master{workers: []workerRef{
		{name: "w0", addr: "a0"}, {name: "w1", addr: "a1"}, {name: "w2", addr: "a2"},
	}}
	j := &job{workers: []int{0, 1}, psServers: []string{"a2", "a1"}}
	var names []string
	for _, r := range m.placementRefsLocked(j) {
		names = append(names, r.name)
	}
	if got := strings.Join(names, ","); got != "w0,w1,w2" {
		t.Errorf("placement refs = %s, want w0,w1,w2", got)
	}
}
