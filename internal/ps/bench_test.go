package ps

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"harmony/internal/rpc"
)

// benchModelSize is the 1M-parameter model of the ISSUE target (8 MB of
// float64s) spread across benchServers servers.
const (
	benchModelSize = 1 << 20
	benchServers   = 4
)

func startBenchCluster(tb testing.TB, n int) []string {
	tb.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := rpc.NewServer()
		NewServer().Register(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	return addrs
}

func benchVectors(n int) (model, delta []float64) {
	model = make([]float64, n)
	delta = make([]float64, n)
	for i := range model {
		model[i] = float64(i % 97)
		delta[i] = 1e-3
	}
	return model, delta
}

// BenchmarkPullPush measures one full steady-state COMM iteration — a
// full-model pull plus a full-delta push across 4 servers — on the
// binary data plane with reused buffers. Compare against
// BenchmarkPullPushGob, the pre-refactor gob implementation.
func BenchmarkPullPush(b *testing.B) {
	addrs := startBenchCluster(b, benchServers)
	c, err := NewClient(addrs, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	model, delta := benchVectors(benchModelSize)
	if err := c.Init("bench", model); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * 8 * benchModelSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PullInto("bench", model); err != nil {
			b.Fatal(err)
		}
		if err := c.Push("bench", delta); err != nil {
			b.Fatal(err)
		}
	}
}

// --- gob baseline -----------------------------------------------------
//
// The pre-refactor data plane, preserved verbatim in miniature: one
// server-wide RWMutex, gob-encoded request/reply structs (the legacy
// schema below), a full-partition copy under RLock per pull, and
// sequential decode into a fresh slice per call.

// The legacy gob wire structs below are no longer what the data plane
// sends; they remain as the reference schema for the gob baseline that
// BenchmarkPullPush is measured against.

// InitArgs creates (or replaces) a job's partition on one server.
type InitArgs struct {
	Job    string
	Lo     int // global index of Values[0]
	Values []float64
}

// PullArgs fetches a job's partition.
type PullArgs struct {
	Job string
}

// PullReply carries the partition back.
type PullReply struct {
	Lo     int
	Values []float64
}

// PushArgs applies an additive delta to a job's partition.
type PushArgs struct {
	Job   string
	Lo    int
	Delta []float64
}

type gobPartition struct {
	Lo     int
	Values []float64
}

type gobServer struct {
	mu    sync.RWMutex
	parts map[string]*gobPartition
}

func registerGobServer(srv *rpc.Server) {
	s := &gobServer{parts: make(map[string]*gobPartition)}
	srv.Handle("psgob.init", rpc.Typed(func(a InitArgs) (Ack, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		vals := make([]float64, len(a.Values))
		copy(vals, a.Values)
		s.parts[a.Job] = &gobPartition{Lo: a.Lo, Values: vals}
		return Ack{}, nil
	}))
	srv.Handle("psgob.pull", rpc.Typed(func(a PullArgs) (PullReply, error) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		p, ok := s.parts[a.Job]
		if !ok {
			return PullReply{}, fmt.Errorf("ps: no partition for job %q", a.Job)
		}
		vals := make([]float64, len(p.Values))
		copy(vals, p.Values)
		return PullReply{Lo: p.Lo, Values: vals}, nil
	}))
	srv.Handle("psgob.push", rpc.Typed(func(a PushArgs) (Ack, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		p, ok := s.parts[a.Job]
		if !ok {
			return Ack{}, fmt.Errorf("ps: no partition for job %q", a.Job)
		}
		start := a.Lo - p.Lo
		if start < 0 || start+len(a.Delta) > len(p.Values) {
			return Ack{}, fmt.Errorf("ps: push shape mismatch for job %q", a.Job)
		}
		for i, d := range a.Delta {
			p.Values[start+i] += d
		}
		return Ack{}, nil
	}))
}

type gobClient struct {
	clients []*rpc.Client
	timeout time.Duration
}

func dialGob(tb testing.TB, addrs []string) *gobClient {
	tb.Helper()
	c := &gobClient{timeout: time.Minute}
	for _, addr := range addrs {
		cl, err := rpc.Dial(addr, c.timeout)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { cl.Close() })
		c.clients = append(c.clients, cl)
	}
	return c
}

func (c *gobClient) init(job string, model []float64) error {
	k := len(c.clients)
	for i, cl := range c.clients {
		lo, hi := Partition(len(model), k, i)
		if _, err := rpc.Invoke[InitArgs, Ack](cl, "psgob.init",
			InitArgs{Job: job, Lo: lo, Values: model[lo:hi]}, c.timeout); err != nil {
			return err
		}
	}
	return nil
}

func (c *gobClient) pull(job string, modelSize int) ([]float64, error) {
	model := make([]float64, modelSize)
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *rpc.Client) {
			defer wg.Done()
			reply, err := rpc.Invoke[PullArgs, PullReply](cl, "psgob.pull", PullArgs{Job: job}, c.timeout)
			if err != nil {
				errs[i] = err
				return
			}
			copy(model[reply.Lo:], reply.Values)
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return model, nil
}

func (c *gobClient) push(job string, delta []float64) error {
	k := len(c.clients)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		lo, hi := Partition(len(delta), k, i)
		wg.Add(1)
		go func(i int, cl *rpc.Client, lo, hi int) {
			defer wg.Done()
			_, errs[i] = rpc.Invoke[PushArgs, Ack](cl, "psgob.push",
				PushArgs{Job: job, Lo: lo, Delta: delta[lo:hi]}, c.timeout)
		}(i, cl, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkPullPushGob is the same workload as BenchmarkPullPush over
// the pre-refactor gob data plane.
func BenchmarkPullPushGob(b *testing.B) {
	addrs := make([]string, benchServers)
	for i := range addrs {
		srv := rpc.NewServer()
		registerGobServer(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	c := dialGob(b, addrs)
	model, delta := benchVectors(benchModelSize)
	if err := c.init("bench", model); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * 8 * benchModelSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.pull("bench", benchModelSize); err != nil {
			b.Fatal(err)
		}
		if err := c.push("bench", delta); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCommPathRaceSmoke hammers the striped data plane from concurrent
// clients — two co-located jobs pulling, pushing and snapshotting at
// once — so `go test -race` exercises the per-stripe locking. Wired into
// `make check`.
func TestCommPathRaceSmoke(t *testing.T) {
	addrs := startBenchCluster(t, 2)
	const modelSize = 3*StripeSize + 17 // span several stripes, ragged tail
	var wg sync.WaitGroup
	for j := 0; j < 2; j++ {
		job := fmt.Sprintf("job-%d", j)
		init, err := NewClient(addrs, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]float64, modelSize)
		if err := init.Init(job, model); err != nil {
			t.Fatal(err)
		}
		init.Close()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(job string) {
				defer wg.Done()
				c, err := NewClient(addrs, time.Minute)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				buf := make([]float64, modelSize)
				delta := make([]float64, modelSize)
				for i := range delta {
					delta[i] = 1
				}
				for it := 0; it < 25; it++ {
					if err := c.PullInto(job, buf); err != nil {
						t.Error(err)
						return
					}
					if err := c.Push(job, delta); err != nil {
						t.Error(err)
						return
					}
					if _, err := c.Snapshot(job, modelSize); err != nil {
						t.Error(err)
						return
					}
				}
			}(job)
		}
	}
	wg.Wait()

	// Every push added exactly 1 to every element: 2 workers × 25 iters.
	c, err := NewClient(addrs, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for j := 0; j < 2; j++ {
		model, err := c.Pull(fmt.Sprintf("job-%d", j), modelSize)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range model {
			if v != 50 {
				t.Fatalf("job-%d element %d = %v, want 50", j, i, v)
			}
		}
	}
}
