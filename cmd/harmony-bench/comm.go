package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"harmony/internal/ps"
	"harmony/internal/rpc"
)

// Comm-path benchmark (-bench-comm): one steady-state COMM iteration — a
// full-model pull plus a full-delta push across commServers loopback
// parameter servers — on the binary data plane, compared with the
// previous committed BENCH_commpath.json. The gob baseline lives in
// `go test -bench BenchmarkPullPushGob ./internal/ps/` (make bench-comm).
const (
	commModelParams = 1 << 20 // 1M float64 parameters, 8 MB
	commServers     = 4
)

// commReport is the machine-readable record written to
// BENCH_commpath.json; future PRs diff against it.
type commReport struct {
	GoMaxProcs  int           `json:"gomaxprocs"`
	GoVersion   string        `json:"go_version"`
	Timestamp   string        `json:"timestamp"`
	ModelParams int           `json:"model_params"`
	Servers     int           `json:"servers"`
	Results     []benchResult `json:"results"`
}

func runBenchComm(path string) error {
	procs := runtime.GOMAXPROCS(0)
	report := commReport{
		GoMaxProcs:  procs,
		GoVersion:   runtime.Version(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		ModelParams: commModelParams,
		Servers:     commServers,
	}
	model := make([]float64, commModelParams)
	delta := make([]float64, commModelParams)
	for i := range model {
		model[i] = float64(i % 97)
		delta[i] = 1e-3
	}

	fmt.Printf("benchmarking COMM path: pull+push of %d params over %d servers...\n",
		commModelParams, commServers)

	binary, err := measureBinaryComm(model, delta)
	if err != nil {
		return err
	}
	report.Results = []benchResult{binary}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("\nGOMAXPROCS=%d (%s)\n", procs, runtime.Version())
	for _, r := range report.Results {
		fmt.Printf("  %-24s %12d ns/op %12d B/op %8d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// startCommServers brings up n parameter servers on loopback and returns
// their addresses plus a teardown func.
func startCommServers(n int) ([]string, func(), error) {
	addrs := make([]string, 0, n)
	servers := make([]*rpc.Server, 0, n)
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for i := 0; i < n; i++ {
		srv := rpc.NewServer()
		ps.NewServer().Register(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, addr)
	}
	return addrs, cleanup, nil
}

func measureBinaryComm(model, delta []float64) (benchResult, error) {
	addrs, cleanup, err := startCommServers(commServers)
	if err != nil {
		return benchResult{}, err
	}
	defer cleanup()
	c, err := ps.NewClient(addrs, time.Minute)
	if err != nil {
		return benchResult{}, err
	}
	defer c.Close()
	if err := c.Init("bench", model); err != nil {
		return benchResult{}, err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.PullInto("bench", model); err != nil {
				b.Fatal(err)
			}
			if err := c.Push("bench", delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	return benchResult{
		Name:        "commpath_binary",
		Parallelism: commServers,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}, nil
}
