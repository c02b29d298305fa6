package master_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/master"
	"harmony/internal/mlapp"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// dropLog records the drop RPCs healthy stub workers served, in arrival
// order, as "<worker> <method>".
type dropLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *dropLog) add(call string) {
	l.mu.Lock()
	l.calls = append(l.calls, call)
	l.mu.Unlock()
}

func (l *dropLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.calls...)
}

// stubWorker registers a worker whose deploy RPCs ack and whose drop
// handlers (worker.MethodDropJob and ps.MethodDrop) behave per mode:
// "ok" logs the call, "block" parks until release closes, "error" fails.
func stubWorker(t *testing.T, m *master.Master, name, mode string, log *dropLog, release <-chan struct{}) {
	t.Helper()
	srv := rpc.NewServer()
	srv.Handle(worker.MethodLoadJob, rpc.Typed(func(worker.LoadJobArgs) (worker.Ack, error) {
		return worker.Ack{}, nil
	}))
	srv.Handle(worker.MethodStartJob, rpc.Typed(func(worker.StartJobArgs) (worker.Ack, error) {
		return worker.Ack{}, nil
	}))
	drop := func(method string) error {
		switch mode {
		case "block":
			<-release
			return nil
		case "error":
			return errors.New("injected " + method + " failure")
		}
		log.add(name + " " + method)
		return nil
	}
	srv.Handle(worker.MethodDropJob, rpc.Typed(func(worker.DropJobArgs) (worker.Ack, error) {
		return worker.Ack{}, drop(worker.MethodDropJob)
	}))
	srv.Handle(ps.MethodDrop, rpc.Typed(func(ps.DropArgs) (ps.Ack, error) {
		return ps.Ack{}, drop(ps.MethodDrop)
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := rpc.Dial(m.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type registerArgs struct{ Name, Addr string }
	if _, err := rpc.Invoke[registerArgs, worker.Ack](c, "master.register",
		registerArgs{Name: name, Addr: addr}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCancelTeardownBoundedAndReported cancels a job placed on two
// healthy workers, one whose drop handlers hang and one whose drop
// handlers fail. Cancel must return within TeardownTimeout, the healthy
// workers must see every worker drop before any PS drop, and the four
// injected failures must show up in the counters, on /metrics, and in
// exactly one teardown_failed event naming the bad workers.
func TestCancelTeardownBoundedAndReported(t *testing.T) {
	m, err := master.New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	release := make(chan struct{})
	log := &dropLog{}
	stubWorker(t, m, "ok0", "ok", log, release)
	stubWorker(t, m, "ok1", "ok", log, release)
	stubWorker(t, m, "hung", "block", log, release)
	stubWorker(t, m, "bad", "error", log, release)
	// Runs before the stub servers close, which wait for their handlers.
	t.Cleanup(func() { close(release) })

	if err := m.Submit(master.JobSpec{
		Name:       "job",
		Config:     mlapp.Config{Kind: mlapp.MLR, Features: 12, Classes: 3, Rows: 96, LearningRate: 0.2},
		Iterations: 10,
	}, nil); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := m.Cancel("job"); err != nil {
		t.Fatal(err)
	}
	if took, limit := time.Since(start), master.TeardownTimeout+2*time.Second; took > limit {
		t.Fatalf("Cancel took %s with a hung worker, want under %s", took, limit)
	}

	calls := log.snapshot()
	if len(calls) != 4 {
		t.Fatalf("healthy workers served %v, want 2 worker drops and 2 PS drops", calls)
	}
	for i, call := range calls {
		wantMethod := worker.MethodDropJob
		if i >= 2 {
			wantMethod = ps.MethodDrop
		}
		if !strings.HasSuffix(call, " "+wantMethod) {
			t.Fatalf("drop order %v: every worker drop must precede every PS drop", calls)
		}
	}

	if got := m.Counters().TeardownFailures; got != 4 {
		t.Errorf("TeardownFailures = %d, want 4", got)
	}
	w := httptest.NewRecorder()
	ctl.New(m).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(w.Body.String(), "\nharmony_teardown_failures_total 4\n") {
		t.Errorf("/metrics lacks harmony_teardown_failures_total 4:\n%s", w.Body.String())
	}

	failed := m.EventsSince(0, master.EventTeardownFailed)
	if len(failed) != 1 {
		t.Fatalf("teardown_failed events = %+v, want exactly one", failed)
	}
	note := failed[0].Note
	if failed[0].Job != "job" {
		t.Errorf("teardown_failed job = %q, want job", failed[0].Job)
	}
	for _, want := range []string{
		"hung " + worker.MethodDropJob, "hung " + ps.MethodDrop,
		"bad " + worker.MethodDropJob, "bad " + ps.MethodDrop,
	} {
		if !strings.Contains(note, want) {
			t.Errorf("teardown_failed note %q does not name %q", note, want)
		}
	}
	if strings.Contains(note, "ok0") || strings.Contains(note, "ok1") {
		t.Errorf("teardown_failed note %q names a healthy worker", note)
	}
}
