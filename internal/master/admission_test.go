package master

import (
	"errors"
	"sync"
	"testing"
	"time"

	"harmony/internal/mlapp"
	"harmony/internal/worker"
)

func TestEnqueueIdleClusterAdmits(t *testing.T) {
	m := cluster(t, 2)
	adm, err := m.Enqueue(spec("a", mlapp.MLR, 5), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Admitted || len(adm.Workers) != 2 {
		t.Fatalf("idle-cluster admission = %+v, want admitted on both workers", adm)
	}
	if err := m.WaitJob("a", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.AdmittedInitial != 1 {
		t.Errorf("AdmittedInitial = %d, want 1", c.AdmittedInitial)
	}
}

func TestEnqueueUnprofiledHeldWhileBusy(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.MLR, 100000), nil); err != nil {
		t.Fatal(err)
	}
	// An unprofiled job cannot improve the score of a busy plan, so the
	// arrival rule holds it (§IV-B4).
	adm, err := m.Enqueue(spec("b", mlapp.Lasso, 5), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admitted {
		t.Fatal("unprofiled job admitted into a busy cluster")
	}
	if d := m.QueueDepth(); d != 1 {
		t.Fatalf("queue depth = %d, want 1", d)
	}
	if v, ok := m.Job("b"); !ok || v.State != "pending" {
		t.Fatalf("Job(b) = %+v, %v; want pending", v, ok)
	}
	// Names are reserved while pending.
	if _, err := m.Enqueue(spec("b", mlapp.Lasso, 5), Profile{}); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("duplicate enqueue = %v, want ErrDuplicateJob", err)
	}
	if err := m.Submit(spec("b", mlapp.Lasso, 5), nil); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("duplicate submit of pending name = %v, want ErrDuplicateJob", err)
	}
	// Canceling a pending job removes it from the queue.
	if err := m.Cancel("b"); err != nil {
		t.Fatal(err)
	}
	if d := m.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", d)
	}
	if err := m.Cancel("b"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel of removed job = %v, want ErrUnknownJob", err)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDrainOnCompletion(t *testing.T) {
	m := cluster(t, 2)
	// Hold a's workers at their first barrier until b is enqueued, so a
	// cannot finish its six iterations before b's admission decision.
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before m.Close, which waits for the handlers
	m.srv.Handle(worker.MethodBarrier, func(raw []byte) ([]byte, error) {
		<-gate
		return m.serveBarrier(raw)
	})
	if err := m.Submit(spec("a", mlapp.MLR, 6), nil); err != nil {
		t.Fatal(err)
	}
	adm, err := m.Enqueue(spec("b", mlapp.Lasso, 4), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admitted {
		t.Fatal("job b admitted while a was running")
	}
	release()
	if err := m.WaitJob("a", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// a's completion triggers a drain that admits b on the idle cluster.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if v, ok := m.Job("b"); ok && v.State != "pending" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job b was not drained from the queue after a finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m.WaitJob("b", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	if c.QueueDrained != 1 {
		t.Errorf("QueueDrained = %d, want 1", c.QueueDrained)
	}
	if c.HeldPending != 1 {
		t.Errorf("HeldPending = %d, want 1", c.HeldPending)
	}
}

func TestCancelRunningJobFreesCluster(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.MLR, 100000), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Job("a"); v.State != "canceled" {
		t.Fatalf("state after cancel = %q, want canceled", v.State)
	}
	// Cancel is idempotent on an already-canceled job.
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
	// WaitJob unblocks on cancellation.
	if err := m.WaitJob("a", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The cluster is idle again: a new job is admitted immediately.
	adm, err := m.Enqueue(spec("c", mlapp.Lasso, 4), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Admitted {
		t.Fatal("cluster not reusable after cancel")
	}
	if err := m.WaitJob("c", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", c.Canceled)
	}
}

func TestCancelFinishedJobErrors(t *testing.T) {
	m := cluster(t, 1)
	if err := m.Submit(spec("a", mlapp.MLR, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("a", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel("a"); !errors.Is(err, ErrJobFinished) {
		t.Errorf("cancel of finished job = %v, want ErrJobFinished", err)
	}
}

func TestShutdownCheckpointsRunningJobs(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.NMF, 100000), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, iter, _, err := m.Status("a")
		if err != nil {
			t.Fatal(err)
		}
		if iter >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job a made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	saved := m.Shutdown(20 * time.Second)
	found := false
	for _, name := range saved {
		if name == "a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Shutdown checkpointed %v, want [a]", saved)
	}
	snap, iter, err := m.Checkpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 || iter < 2 {
		t.Errorf("final checkpoint: %d values at iteration %d", len(snap), iter)
	}
	// The drained master rejects new work.
	if _, err := m.Enqueue(spec("z", mlapp.MLR, 3), Profile{}); !errors.Is(err, ErrDraining) {
		t.Errorf("enqueue after shutdown = %v, want ErrDraining", err)
	}
}

func TestListJobsIncludesPending(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.MLR, 100000), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enqueue(spec("b", mlapp.Lasso, 4), Profile{}); err != nil {
		t.Fatal(err)
	}
	views := m.ListJobs()
	if len(views) != 2 {
		t.Fatalf("ListJobs = %d entries, want 2", len(views))
	}
	if views[0].Name != "a" || views[1].Name != "b" {
		t.Fatalf("ListJobs order = [%s %s], want [a b]", views[0].Name, views[1].Name)
	}
	if views[1].State != "pending" {
		t.Errorf("pending view = %+v", views[1])
	}
	cv := m.Cluster()
	if len(cv.Workers) != 2 || len(cv.Groups) != 1 || len(cv.Pending) != 1 {
		t.Errorf("cluster view = %+v", cv)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
}
