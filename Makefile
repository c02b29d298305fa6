GO ?= go

## VERSION is stamped into the binaries (and harmony_build_info) via the
## linker; override with `make build VERSION=v1.2.3`.
VERSION ?= dev
LDFLAGS := -ldflags "-X harmony/internal/obs.Version=$(VERSION)"

.PHONY: check fmt vet build test race ctl-smoke comm-smoke comp-smoke obs-smoke ps-rebalance-smoke fair-smoke place-smoke admit-smoke snapshot-smoke bench-smoke bench-report bench-comm bench-comp bench-rebalance bench-fair bench-place bench-admit trace-demo

## check: full local gate — gofmt, vet, build, race-enabled tests, bench
## smoke run. The *-smoke targets below are developer shortcuts: each runs
## a subset of the `race` target's `go test -race ./...`, so check does
## not repeat them.
check: fmt vet build race bench-smoke

## fmt: fail if any file is not gofmt-formatted
fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

## race: the race detector guards the scheduler search and experiment pool
race:
	$(GO) test -race ./...

## ctl-smoke: fast race-enabled pass over the control plane (HTTP API +
## live-master admission integration)
ctl-smoke:
	$(GO) test -race ./internal/ctl/...

## comm-smoke: short race-enabled pass over the striped pull/push data
## plane (concurrent jobs, snapshots mid-push)
comm-smoke:
	$(GO) test -race -run 'TestCommPathRaceSmoke' ./internal/ps/

## comp-smoke: short race-enabled pass over the fast COMP path (cache
## invalidation vs concurrent spill retunes)
comp-smoke:
	$(GO) test -race -run 'TestCompPathRaceSmoke' ./internal/worker/

## ps-rebalance-smoke: race-enabled pass over the elastic PS — live
## stripe migration under concurrent pull/push (bit-exact vs a
## no-migration control) and the skewed-load rebalance loop
ps-rebalance-smoke:
	$(GO) test -race -run 'TestMigrat|TestPSRebalanceSmoke' ./internal/ps/

## fair-smoke: race-enabled pass over the fair scheduler — queue policy
## unit tests, the deterministic fair-vs-FIFO simulation, and the
## concurrent enqueue/cancel/preempt churn property test
fair-smoke:
	$(GO) test -race ./internal/fair/
	$(GO) test -race -run 'TestFair' ./internal/master/ ./internal/ctl/

## place-smoke: race-enabled pass over the network-aware placement layer —
## the interleave solver (determinism, order independence), the link
## model (demand-curve conservation, capacities), the contention physics
## at 100-machine scale, and NetModel parallel/sequential bit-identity
place-smoke:
	$(GO) test -race -run 'TestSolveInterleave|TestCompFloor|TestGroupCompatibility' ./internal/core/
	$(GO) test -race -run 'TestScheduleParallelMatchesSequentialNetModel' ./internal/core/
	$(GO) test -race -run 'TestNewLinkModel|TestDemandCurve|TestGroupDemand|TestLinkContention' ./internal/sim/

## obs-smoke: race-enabled pass over the tracing subsystem (span ring,
## histograms, traced 2-job live cluster with a worker killed mid-run)
obs-smoke:
	$(GO) test -race ./internal/obs/ ./internal/metrics/
	$(GO) test -race -run 'TestExecutorRecordsSpans' ./internal/subtask/
	$(GO) test -race -run 'TestTracedClusterOverHTTP' ./internal/ctl/

## admit-smoke: race-enabled pass over the admission fast path — Scorer
## bit-identity property tests against the clone-and-rescore test
## oracles, cached-vs-rebuilt decision parity on a live cluster,
## zero-full-rescore regression, the coalescing drainer, and the
## concurrent status-reader/enqueue-churn stress test
admit-smoke:
	$(GO) test -race -run 'TestScorer|TestIncrementalAdmissionBitIdentical|TestScoreDeltaAllocFree|TestRegroupAfterFinish' ./internal/core/
	$(GO) test -race -run 'TestAdmit|TestWakeDrainerCoalesces|TestWorkerSetKeyOrder' ./internal/master/

## snapshot-smoke: race-enabled pass over snapshot/replay — journal ring
## wraparound under concurrent append/read, state capture on a live
## cluster, the deterministic replay engine with its golden corpus, and
## the capture → replay-twice → /metrics HTTP integration
snapshot-smoke:
	$(GO) test -race -run 'TestJournal|TestSnapshot' ./internal/master/
	$(GO) test -race ./internal/replay/
	$(GO) test -race -run 'TestSnapshotReplayOverHTTP|TestEventsFilters|TestSnapshotEndpoint|TestReplayEndpointFeedsMetrics' ./internal/ctl/

## bench-smoke: quick pass over the perf-critical benchmarks with -benchmem
bench-smoke:
	$(GO) test ./internal/core/ -run XXX -bench BenchmarkScheduleLarge -benchmem -benchtime 3x
	$(GO) test ./internal/sim/ -run XXX -bench BenchmarkRunHarmonyBase -benchmem -benchtime 3x
	$(GO) test ./internal/ps/ -run XXX -bench BenchmarkPullPush -benchmem -benchtime 3x
	$(GO) test . -run XXX -bench BenchmarkFig10Parallel -benchtime 1x

## bench-report: machine-readable speedup report (BENCH_schedule.json)
bench-report:
	$(GO) run ./cmd/harmony-bench -bench

## bench-comm: data-plane report — the go test benchmarks compare the
## binary codec with the gob baseline (BenchmarkPullPushGob);
## harmony-bench writes the binary plane's numbers to BENCH_commpath.json
bench-comm:
	$(GO) test ./internal/ps/ -run XXX -bench 'BenchmarkPullPush' -benchmem
	$(GO) run ./cmd/harmony-bench -bench-comm

## bench-comp: compute-path report — the go test benchmarks compare cached
## binary blocks + fused multicore kernel with the gob-decode serial
## baseline; harmony-bench writes the fast path's numbers to
## BENCH_comppath.json
bench-comp:
	$(GO) test ./internal/worker/ -run XXX -bench 'BenchmarkComp' -benchmem
	$(GO) run ./cmd/harmony-bench -bench-comp

## bench-rebalance: elastic-PS report — skewed-access throughput and p99
## stripe lock-wait with hot-stripe rebalancing off vs on
## (BENCH_psrebalance.json)
bench-rebalance:
	$(GO) test ./internal/ps/ -run XXX -bench 'BenchmarkPSRebalance' -benchtime 2x
	$(GO) run ./cmd/harmony-bench -bench-rebalance

## bench-fair: fair-scheduler report — two-tenant contention
## (time-to-fair-share, preemption-to-resume latency) under the fair
## policy vs the FIFO baseline (BENCH_fair.json)
bench-fair:
	$(GO) run ./cmd/harmony-bench -bench-fair

## bench-place: network-aware placement report — comm-heavy two-per-group
## workload at 100 machines under link-contention physics, scheduler's
## aggregate-bandwidth model vs the net-aware model with CASSINI-style
## interleaving (BENCH_placement.json)
bench-place:
	$(GO) run ./cmd/harmony-bench -bench-place

## bench-admit: cluster-scale admission report — 1K workers, 10K held
## arrivals, completion-churn drain passes (BENCH_admit.json)
bench-admit:
	$(GO) run ./cmd/harmony-bench -bench-admit

## trace-demo: run a traced 2-worker, 2-job live cluster and write
## trace.json (open at https://ui.perfetto.dev)
trace-demo:
	$(GO) run $(LDFLAGS) ./cmd/harmony-trace-demo -o trace.json
