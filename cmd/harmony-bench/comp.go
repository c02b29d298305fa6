package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"harmony/internal/mlapp"
)

// Comp-path benchmark (-bench-comp): one steady-state COMP subtask per
// mlapp algorithm — shard access plus the full update-and-loss
// computation — on the fast path (columnar payloads decoded once, fused
// multicore kernel), compared with the previous committed
// BENCH_comppath.json. The gob-decode serial baseline lives in
// `go test -bench BenchmarkComp ./internal/worker/` (make bench-comp).
const (
	compRows         = 512
	compFeatures     = 32
	compClasses      = 8
	compRowsPerBlock = 32
)

// compReport is the machine-readable record written to
// BENCH_comppath.json; future PRs diff against it.
type compReport struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	Timestamp  string        `json:"timestamp"`
	Rows       int           `json:"rows"`
	Features   int           `json:"features"`
	Classes    int           `json:"classes"`
	Results    []benchResult `json:"results"`
}

func runBenchComp(path string) error {
	procs := runtime.GOMAXPROCS(0)
	report := compReport{
		GoMaxProcs: procs,
		GoVersion:  runtime.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Rows:       compRows,
		Features:   compFeatures,
		Classes:    compClasses,
	}
	fmt.Printf("benchmarking COMP path: %d rows × %d features, %d classes, GOMAXPROCS=%d...\n",
		compRows, compFeatures, compClasses, procs)

	for _, kind := range []mlapp.Kind{mlapp.MLR, mlapp.Lasso, mlapp.NMF, mlapp.LDA} {
		cfg := mlapp.Config{Kind: kind, Rows: compRows,
			Features: compFeatures, Classes: compClasses}
		fast, err := measureCompFast(cfg)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, fast)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("\nGOMAXPROCS=%d (%s)\n", procs, runtime.Version())
	for _, r := range report.Results {
		fmt.Printf("  %-28s %12d ns/op %12d B/op %8d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// compSetup generates the shard and encodes it into columnar per-block
// payloads, mirroring the worker's load path.
func compSetup(cfg mlapp.Config) (mlapp.Algorithm, *mlapp.Shard, [][]byte, error) {
	algo, err := mlapp.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	shards, err := mlapp.GenerateShards(cfg, 1, 11)
	if err != nil {
		return nil, nil, nil, err
	}
	shard := shards[0]
	var payloads [][]byte
	for lo := 0; lo < len(shard.Examples); lo += compRowsPerBlock {
		hi := lo + compRowsPerBlock
		if hi > len(shard.Examples) {
			hi = len(shard.Examples)
		}
		payloads = append(payloads, mlapp.AppendExamples(nil, shard.Examples[lo:hi]))
	}
	return algo, shard, payloads, nil
}

// measureCompFast times the fast path: columnar blocks decoded once into
// a cached view, then the fused multicore kernel per iteration.
func measureCompFast(cfg mlapp.Config) (benchResult, error) {
	algo, shard, payloads, err := compSetup(cfg)
	if err != nil {
		return benchResult{}, err
	}
	// Decode once (the cache's cold pass); iterations reuse the view.
	var examples []mlapp.Example
	for _, p := range payloads {
		ex, err := mlapp.DecodeExamples(p)
		if err != nil {
			return benchResult{}, err
		}
		examples = append(examples, ex...)
	}
	cached := &mlapp.Shard{Kind: shard.Kind, RowOffset: shard.RowOffset, Examples: examples}
	rng := rand.New(rand.NewSource(7))
	model := algo.InitModel(rng)
	var delta []float64
	var scratch mlapp.Scratch
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			delta, _ = mlapp.ComputeFused(algo, delta, model, cached, rng, 0, &scratch)
		}
	})
	return benchResult{
		Name:        "comppath_fast_" + cfg.Kind.String(),
		Parallelism: runtime.GOMAXPROCS(0),
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}, nil
}
