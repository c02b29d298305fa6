package master

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/mlapp"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// waitCheckpoint polls until the job's background checkpoint covers at
// least iteration iter.
func waitCheckpoint(t *testing.T, m *Master, name string, iter int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, got, err := m.Checkpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		if got >= iter {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint of %s reached iteration %d, want >= %d", name, got, iter)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCheckpointsRideWorkerConnections runs a job through ten periodic
// checkpoints: every snapshot must go over the connections the master
// already holds to its workers, so no worker accepts a connection after
// the job is deployed.
func TestCheckpointsRideWorkerConnections(t *testing.T) {
	m, ws := clusterWorkers(t, 2)
	if err := m.Submit(spec("ck", mlapp.MLR, 100000), nil); err != nil {
		t.Fatal(err)
	}
	// Deployment is done: the master's connections and the workers' PS
	// clients (one connection per group-mate server) are all open.
	before := make([]uint64, len(ws))
	for i, w := range ws {
		before[i] = w.Accepted()
	}
	waitCheckpoint(t, m, "ck", 10*CheckpointEvery)
	for i, w := range ws {
		if got := w.Accepted(); got != before[i] {
			t.Errorf("%s accepted %d connections during 10 checkpoints, want 0",
				w.Name(), got-before[i])
		}
	}
	if f := m.Counters().CheckpointFailures; f != 0 {
		t.Errorf("CheckpointFailures = %d, want 0", f)
	}
	if err := m.Cancel("ck"); err != nil {
		t.Fatal(err)
	}
}

// TestPauseSnapshotBitEqual pauses a job and compares the checkpoint
// Pause returns, read through the job's cached snapshot client, with a
// direct snapshot over freshly dialed connections: every parameter must
// match bit for bit.
func TestPauseSnapshotBitEqual(t *testing.T) {
	m := cluster(t, 2)
	job := spec("pz", mlapp.Lasso, 100000)
	if err := m.Submit(job, nil); err != nil {
		t.Fatal(err)
	}
	waitCheckpoint(t, m, "pz", CheckpointEvery) // builds the cached client
	ckpt, err := m.Pause("pz", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	servers := m.serverAddrsLocked(m.jobs["pz"])
	m.mu.Unlock()
	var dialed []*rpc.Client
	defer func() {
		for _, c := range dialed {
			c.Close()
		}
	}()
	direct, err := ps.NewClientOver(servers, func(addr string) (*rpc.Client, error) {
		c, err := rpc.Dial(addr, 10*time.Second)
		if err == nil {
			dialed = append(dialed, c)
		}
		return c, err
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Snapshot("pz", job.Config.ModelSize())
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt) != len(want) {
		t.Fatalf("pause checkpoint has %d parameters, direct snapshot %d", len(ckpt), len(want))
	}
	for i := range want {
		if math.Float64bits(ckpt[i]) != math.Float64bits(want[i]) {
			t.Fatalf("parameter %d: pause checkpoint %v, direct snapshot %v", i, ckpt[i], want[i])
		}
	}
	if err := m.Cancel("pz"); err != nil {
		t.Fatal(err)
	}
}

// TestFailedDeployReleasesGang deploys a job on a real worker and a stub
// whose StartJob fails only after the real worker has parked at barrier
// 0. The stub hosts a real parameter server, so the real worker can pull
// and push its way to the barrier. The failed deploy must release that
// waiter and tear the partial placement down: Close returns promptly,
// and neither PS keeps stripes of the job.
func TestFailedDeployReleasesGang(t *testing.T) {
	m, ws := clusterWorkers(t, 1)
	var parked atomic.Bool
	srv := rpc.NewServer()
	stubPS := ps.NewServer()
	stubPS.Register(srv)
	t.Cleanup(stubPS.Close)
	ack := func(raw []byte) ([]byte, error) { return rpc.Encode(worker.Ack{}) }
	srv.Handle(worker.MethodLoadJob, ack)
	srv.Handle(worker.MethodDropJob, ack)
	srv.Handle(worker.MethodStartJob, func([]byte) ([]byte, error) {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			m.mu.Lock()
			bs := m.jobs["gang"].barriers[0]
			n := 0
			if bs != nil {
				n = len(bs.waiters)
			}
			m.mu.Unlock()
			if n == 1 {
				parked.Store(true)
				break
			}
			time.Sleep(time.Millisecond)
		}
		return nil, errors.New("injected start failure")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if _, err := m.handleRegister(registerArgs{Name: "stub", Addr: addr}); err != nil {
		t.Fatal(err)
	}

	if err := m.Submit(spec("gang", mlapp.MLR, 100), nil); err == nil {
		t.Fatal("deploy with a failing StartJob succeeded")
	}
	if !parked.Load() {
		t.Fatal("the real worker never parked at barrier 0")
	}
	cs, err := m.PSStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Servers) != 2 {
		t.Fatalf("PS scrape covers %d servers, want 2", len(cs.Servers))
	}
	for _, name := range []string{ws[0].Name(), "stub"} {
		if n := stripesByServer(cs, "gang")[name]; n != 0 {
			t.Errorf("%s still holds %d stripes of the failed deploy", name, n)
		}
	}
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked after a failed deploy: a barrier waiter leaked")
	}
}
