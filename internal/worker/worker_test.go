package worker

import (
	"strings"
	"testing"
	"time"

	"harmony/internal/mlapp"
	"harmony/internal/rpc"
)

// fakeMaster is a minimal barrier-free master endpoint for driving a
// worker directly: every barrier answers Continue.
func fakeMaster(t *testing.T) string {
	t.Helper()
	return stubMaster(t, func(raw []byte) ([]byte, error) {
		if _, err := ReadBarrierArgs(raw); err != nil {
			return nil, err
		}
		return AppendDirective(rpc.GetBuffer(1)[:0], Continue), nil
	}, func(raw []byte) ([]byte, error) {
		_, err := ReadJobDoneArgs(raw)
		return nil, err
	})
}

// stubMaster serves registration plus the given raw barrier and done
// handlers, and returns its address.
func stubMaster(t *testing.T, barrier, done rpc.Handler) string {
	t.Helper()
	srv := rpc.NewServer()
	type registerArgs struct {
		Name string
		Addr string
	}
	srv.Handle("master.register", rpc.Typed(func(a registerArgs) (Ack, error) {
		return Ack{}, nil
	}))
	srv.Handle(MethodBarrier, barrier)
	srv.Handle(MethodJobDone, done)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func startWorker(t *testing.T) (*Worker, *rpc.Client) {
	t.Helper()
	return startWorkerWith(t, fakeMaster(t))
}

func startWorkerWith(t *testing.T, masterAddr string) (*Worker, *rpc.Client) {
	t.Helper()
	w, addr, err := New("unit", "127.0.0.1:0", masterAddr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ctl, err := rpc.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	return w, ctl
}

func loadArgs(w *Worker, servers []string) LoadJobArgs {
	return LoadJobArgs{
		Job:     "j1",
		Config:  mlapp.Config{Kind: mlapp.MLR, Features: 8, Classes: 2, Rows: 64},
		Servers: servers, ShardIndex: 0, ShardCount: 1,
		Seed: 3, InitModel: true,
	}
}

func TestLoadJobValidation(t *testing.T) {
	w, ctl := startWorker(t)
	self := w.srv.Addr()

	// Unknown algorithm.
	bad := loadArgs(w, []string{self})
	bad.Config.Kind = mlapp.Kind(99)
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, bad, time.Second); err == nil {
		t.Error("unknown algorithm accepted")
	}

	// Shard index out of range.
	bad = loadArgs(w, []string{self})
	bad.ShardIndex = 5
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, bad, time.Second); err == nil ||
		!strings.Contains(err.Error(), "shard index") {
		t.Errorf("bad shard index: err = %v", err)
	}

	// No parameter servers.
	bad = loadArgs(w, nil)
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, bad, time.Second); err == nil {
		t.Error("empty server list accepted")
	}
}

func TestStartJobRequiresLoad(t *testing.T) {
	_, ctl := startWorker(t)
	_, err := rpc.Invoke[StartJobArgs, Ack](ctl, MethodStartJob,
		StartJobArgs{Job: "ghost", Iterations: 1}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Errorf("start of unloaded job: err = %v", err)
	}
}

func TestLoadStartRunsToCompletion(t *testing.T) {
	w, ctl := startWorker(t)
	self := w.srv.Addr()
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, loadArgs(w, []string{self}), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[StartJobArgs, Ack](ctl, MethodStartJob,
		StartJobArgs{Job: "j1", Iterations: 3}, time.Second); err != nil {
		t.Fatal(err)
	}
	// Double start must fail while running... or succeed after it
	// finished; poll stats until the executor ran subtasks.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := rpc.Invoke[StatsArgs, StatsReply](ctl, MethodStats, StatsArgs{}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.Jobs == 1 && st.CPUUtil >= 0 {
			if w.exec.Stats().Executed[1] >= 3 { // 3 COMP subtasks
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never completed its iterations")
}

func TestSetAlphaAndDrop(t *testing.T) {
	w, ctl := startWorker(t)
	self := w.srv.Addr()
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, loadArgs(w, []string{self}), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[SetAlphaArgs, Ack](ctl, MethodSetAlpha,
		SetAlphaArgs{Job: "j1", Alpha: 0.5}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[SetAlphaArgs, Ack](ctl, MethodSetAlpha,
		SetAlphaArgs{Job: "ghost", Alpha: 0.5}, time.Second); err == nil {
		t.Error("SetAlpha on unknown job succeeded")
	}
	if _, err := rpc.Invoke[DropJobArgs, Ack](ctl, MethodDropJob,
		DropJobArgs{Job: "j1"}, time.Second); err != nil {
		t.Fatal(err)
	}
	// Dropping twice is a no-op.
	if _, err := rpc.Invoke[DropJobArgs, Ack](ctl, MethodDropJob,
		DropJobArgs{Job: "j1"}, time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := rpc.Invoke[StatsArgs, StatsReply](ctl, MethodStats, StatsArgs{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 0 {
		t.Errorf("jobs = %d after drop", st.Jobs)
	}
}

func TestWorkerDoubleClose(t *testing.T) {
	w, _ := startWorker(t)
	w.Close()
	w.Close()
	if w.Name() != "unit" {
		t.Error("name lost after close")
	}
}
