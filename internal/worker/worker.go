// Package worker implements the live Harmony worker process: it hosts a
// co-located parameter server, keeps its input shard in a spillable block
// store, and executes jobs as PULL→COMP→PUSH subtask cycles through the
// §IV-A runner queues, synchronizing each iteration with the master.
package worker

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/memstore"
	"harmony/internal/metrics"
	"harmony/internal/mlapp"
	"harmony/internal/obs"
	"harmony/internal/parallel"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/subtask"
)

// RPC method names served by the worker.
const (
	MethodLoadJob  = "worker.loadJob"
	MethodStartJob = "worker.startJob"
	MethodDropJob  = "worker.dropJob"
	MethodSetAlpha = "worker.setAlpha"
	MethodStats    = "worker.stats"
	MethodUpdatePS = "worker.updatePS"
)

// Master-side methods the worker calls.
const (
	MethodBarrier = "master.barrier"
	MethodJobDone = "master.jobDone"
)

// LoadJobArgs prepares a job on this worker: generate (or re-load) the
// input shard, connect to the group's parameter servers, and optionally
// initialize the model partitions.
type LoadJobArgs struct {
	Job     string
	Config  mlapp.Config
	Servers []string
	// ShardIndex / ShardCount select this worker's partition of the
	// synthetic dataset; Seed keeps it reproducible across migrations.
	ShardIndex int
	ShardCount int
	Seed       int64
	// InitModel is set on exactly one worker per group to seed the
	// parameter servers. RestoreFrame carries checkpointed parameters
	// instead when a migrated job resumes (§IV-B4), encoded as one
	// data-plane float frame (rpc.AppendFloats) so large-model
	// migrations ride the binary codec rather than gob's reflective
	// per-element walk.
	InitModel    bool
	RestoreFrame []byte
	// Alpha is the initial disk-block ratio for the shard store.
	Alpha float64
}

// StartJobArgs begins (or resumes) iterating a loaded job.
type StartJobArgs struct {
	Job string
	// FromIteration resumes counting; Iterations is the convergence
	// bound.
	FromIteration int
	Iterations    int
	// Epoch identifies the placement this run belongs to; the worker
	// echoes it on barrier and done calls so the master can discard
	// stragglers from a torn-down placement.
	Epoch int
}

// DropJobArgs stops and unloads a job.
type DropJobArgs struct {
	Job string
}

// SetAlphaArgs retunes the job's spill ratio.
type SetAlphaArgs struct {
	Job   string
	Alpha float64
}

// UpdatePSArgs rewires a running job's PS client to a new server set —
// the worker-side half of elastic resizing (DESIGN.md §12). The client
// keeps connections to retained servers and refreshes its stripe routes
// lazily, so in-flight iterations see at most one moved-stripe retry.
type UpdatePSArgs struct {
	Job     string
	Servers []string
}

// SpanCursorNone asks a Stats call to skip span payloads entirely —
// utilization aggregators poll Stats every scrape and must not drag the
// whole span ring along each time.
const SpanCursorNone = ^uint64(0)

// StatsArgs requests executor statistics. SpanAfter is the caller's
// trace cursor: the reply piggybacks recorded spans with sequence
// numbers beyond it (none when tracing is disabled on this worker, or
// when the cursor is SpanCursorNone).
type StatsArgs struct {
	Unused    bool
	SpanAfter uint64
}

// StatsReply summarizes the worker's executor state.
type StatsReply struct {
	CPUUtil float64
	NetUtil float64
	Jobs    int
	// Comm is this worker process's data-plane traffic (pull/push ops,
	// bytes, latency); the master aggregates it across workers so the
	// control plane's /metrics sees cluster-wide COMM totals even when
	// workers run as separate processes. CommProcess identifies the
	// owning process — in-process workers share one counter set and the
	// aggregator must count it once.
	Comm metrics.CommSnapshot
	// Comp is this process's compute-path health (decoded-block cache
	// hits/misses, reload-stall seconds), aggregated like Comm and
	// deduplicated by the same CommProcess id.
	Comp        metrics.CompSnapshot
	CommProcess string
	// Spans are the subtask/barrier spans recorded since the caller's
	// SpanAfter cursor, and PhaseHist the per-phase latency histograms —
	// both empty unless this worker runs with tracing enabled. They ride
	// the existing Stats path so trace collection needs no extra RPC
	// surface and inherits its best-effort semantics.
	Spans     []obs.Span
	PhaseHist [obs.NumPhases]metrics.HistSnapshot
}

// Ack is an empty reply.
type Ack struct{}

// jobState is one loaded job on the worker.
type jobState struct {
	cfg      mlapp.Config
	algo     mlapp.Algorithm
	client   *ps.Client
	store    *memstore.Store
	shard    *mlapp.Shard
	rng      *rand.Rand
	stopCh   chan struct{}
	running  bool
	lastIter int
	// model and delta are reused across iterations: PullInto decodes the
	// pulled parameters straight into model and the fused COMP kernel
	// writes the update into delta, so the steady-state cycle allocates
	// nothing.
	model []float64
	delta []float64
	// The fast COMP path (DESIGN.md §9): cache holds per-block decoded
	// examples, assembled is the stitched shard view valid while
	// assembledGen matches the cache generation, examplesBuf is its
	// reused backing array, and scratch is the fused kernel's per-chunk
	// arena. Only the drive goroutine touches assembled/examplesBuf/
	// scratch; cache is shared with the store's notify callback.
	cache        *blockCache
	assembled    *mlapp.Shard
	assembledGen uint64
	examplesBuf  []mlapp.Example
	scratch      mlapp.Scratch
}

// Worker is the live worker runtime. Create with New, then Close.
type Worker struct {
	name     string
	spillDir string
	// compWorkers bounds the fused COMP kernel's core pool; 0 selects
	// GOMAXPROCS. Atomic so a live retune never races the drive loop.
	// The executor runs one COMP subtask at a time (§IV-A), so the
	// kernel may saturate the pool without oversubscribing.
	compWorkers atomic.Int32
	// rec is the span recorder; nil (the default) means tracing is off
	// and every instrumentation point reduces to a nil check.
	rec atomic.Pointer[obs.Recorder]

	mu   sync.Mutex
	jobs map[string]*jobState

	srv    *rpc.Server
	psrv   *ps.Server
	exec   *subtask.Executor
	master *rpc.Client
	wg     sync.WaitGroup
	closed bool
}

// New starts a worker: its RPC server (with the co-located parameter
// server) listens on addr ("127.0.0.1:0" for tests), and the worker
// registers with the master.
func New(name, addr, masterAddr, spillDir string) (*Worker, string, error) {
	w := &Worker{
		name:     name,
		spillDir: spillDir,
		jobs:     make(map[string]*jobState),
		srv:      rpc.NewServer(),
		psrv:     ps.NewServer(),
		exec:     subtask.NewExecutor(),
	}
	w.psrv.Register(w.srv)
	w.srv.Handle(MethodLoadJob, rpc.Typed(w.handleLoadJob))
	w.srv.Handle(MethodStartJob, rpc.Typed(w.handleStartJob))
	w.srv.Handle(MethodDropJob, rpc.Typed(w.handleDropJob))
	w.srv.Handle(MethodSetAlpha, rpc.Typed(w.handleSetAlpha))
	w.srv.Handle(MethodStats, rpc.Typed(w.handleStats))
	w.srv.Handle(MethodUpdatePS, rpc.Typed(w.handleUpdatePS))
	bound, err := w.srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	master, err := rpc.Dial(masterAddr, 10*time.Second)
	if err != nil {
		w.srv.Close()
		return nil, "", fmt.Errorf("worker %s: dial master: %w", name, err)
	}
	w.master = master
	type registerArgs struct {
		Name string
		Addr string
	}
	if _, err := rpc.Invoke[registerArgs, Ack](master, "master.register",
		registerArgs{Name: name, Addr: bound}, 10*time.Second); err != nil {
		w.srv.Close()
		master.Close()
		return nil, "", fmt.Errorf("worker %s: register: %w", name, err)
	}
	return w, bound, nil
}

func (w *Worker) handleLoadJob(a LoadJobArgs) (Ack, error) {
	algo, err := mlapp.New(a.Config)
	if err != nil {
		return Ack{}, err
	}
	shards, err := mlapp.GenerateShards(a.Config, maxInt(a.ShardCount, 1), a.Seed)
	if err != nil {
		return Ack{}, err
	}
	idx := a.ShardIndex
	if idx < 0 || idx >= len(shards) {
		return Ack{}, fmt.Errorf("worker %s: shard index %d of %d", w.name, idx, len(shards))
	}
	client, err := ps.NewClient(a.Servers, 30*time.Second)
	if err != nil {
		return Ack{}, err
	}
	store, err := memstore.Open(fmt.Sprintf("%s/%s-%s", w.spillDir, w.name, a.Job))
	if err != nil {
		client.Close()
		return Ack{}, err
	}
	// Input data lives in the block store so the spill/reload mechanism
	// governs its residency (§IV-C): one block per bundle of examples,
	// encoded in the columnar binary layout the fast COMP path decodes
	// once per residency period.
	shard := shards[idx]
	const rowsPerBlock = 32
	cache := newBlockCache()
	store.SetNotify(cache.onEvent)
	for b := 0; b*rowsPerBlock < len(shard.Examples); b++ {
		lo := b * rowsPerBlock
		hi := minInt(lo+rowsPerBlock, len(shard.Examples))
		payload := mlapp.AppendExamples(nil, shard.Examples[lo:hi])
		if err := store.Put(&memstore.Block{ID: b, Payload: payload}); err != nil {
			client.Close()
			store.Close()
			return Ack{}, err
		}
	}
	if err := store.SetAlpha(a.Alpha); err != nil {
		client.Close()
		store.Close()
		return Ack{}, err
	}

	rng := rand.New(rand.NewSource(a.Seed ^ int64(idx+1)))
	st := &jobState{
		cfg: a.Config, algo: algo, client: client, store: store,
		shard: shard, rng: rng, stopCh: make(chan struct{}),
		cache: cache,
	}
	if a.InitModel {
		var model []float64
		if a.RestoreFrame != nil {
			model, _, err = rpc.ReadFloats(a.RestoreFrame, nil)
			if err != nil {
				client.Close()
				store.Close()
				return Ack{}, fmt.Errorf("worker %s: restore frame: %w", w.name, err)
			}
		} else {
			model = algo.InitModel(rng)
		}
		if err := client.Init(a.Job, model); err != nil {
			client.Close()
			store.Close()
			return Ack{}, err
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		client.Close()
		store.Close()
		return Ack{}, rpc.ErrClosed
	}
	if old, ok := w.jobs[a.Job]; ok {
		old.client.Close()
		old.store.Close()
	}
	w.jobs[a.Job] = st
	return Ack{}, nil
}

func (w *Worker) handleStartJob(a StartJobArgs) (Ack, error) {
	w.mu.Lock()
	st, ok := w.jobs[a.Job]
	if !ok {
		w.mu.Unlock()
		return Ack{}, fmt.Errorf("worker %s: job %q not loaded", w.name, a.Job)
	}
	if st.running {
		w.mu.Unlock()
		return Ack{}, fmt.Errorf("worker %s: job %q already running", w.name, a.Job)
	}
	st.running = true
	st.stopCh = make(chan struct{})
	w.mu.Unlock()

	w.wg.Add(1)
	go w.drive(a.Job, st, a.FromIteration, a.Iterations, a.Epoch)
	return Ack{}, nil
}

// drive runs the job's PULL→COMP→PUSH cycle through the subtask executor
// until convergence, a pause directive, or shutdown.
func (w *Worker) drive(job string, st *jobState, from, iterations, epoch int) {
	defer w.wg.Done()
	defer func() {
		w.mu.Lock()
		st.running = false
		w.mu.Unlock()
	}()
	modelSize := st.cfg.ModelSize()
	if cap(st.model) < modelSize {
		st.model = make([]float64, modelSize)
	}
	st.model = st.model[:modelSize]
	for iter := from; iter < iterations; iter++ {
		select {
		case <-st.stopCh:
			return
		default:
		}
		var pullErr error
		var compSecs, netSecs float64
		var loss float64
		model := st.model

		// PULL subtask: decode straight into the reused model buffer.
		stepDone := make(chan struct{})
		start := time.Now()
		if err := w.exec.SubmitAt(subtask.Pull, job, iter, func() {
			pullErr = st.client.PullInto(job, model)
		}, func() { close(stepDone) }); err != nil {
			return
		}
		<-stepDone
		netSecs += time.Since(start).Seconds()
		if pullErr != nil {
			return // servers gone: the master is tearing the job down
		}

		// COMP subtask: reload-gated data access plus real computation.
		// The shard comes from the decoded-block cache (re-decoding only
		// blocks the spiller evicted), and the fused multicore kernel
		// produces the update and the loss in one pass over the data,
		// writing into the reused delta buffer.
		var compErr error
		stepDone = make(chan struct{})
		start = time.Now()
		if err := w.exec.SubmitAt(subtask.Comp, job, iter, func() {
			shard, err := st.materializeShard()
			if err != nil {
				compErr = err
				return
			}
			st.delta, loss = mlapp.ComputeFused(st.algo, st.delta, model, shard,
				st.rng, int(w.compWorkers.Load()), &st.scratch)
		}, func() { close(stepDone) }); err != nil {
			return
		}
		<-stepDone
		compSecs = time.Since(start).Seconds()
		if compErr != nil {
			// Input data unavailable or corrupt: training on a truncated
			// shard would silently skew the model and its loss. Tear the
			// job down exactly like a PULL/PUSH failure — the master's
			// recovery path restarts it from the last checkpoint.
			return
		}

		// PUSH subtask.
		var pushErr error
		stepDone = make(chan struct{})
		start = time.Now()
		if err := w.exec.SubmitAt(subtask.Push, job, iter, func() {
			pushErr = st.client.Push(job, st.delta)
		}, func() { close(stepDone) }); err != nil {
			return
		}
		<-stepDone
		netSecs += time.Since(start).Seconds()
		if pushErr != nil {
			return
		}

		st.lastIter = iter

		// Iteration barrier with the master (Fig. 7's synchronizer). The
		// wait is traced so stalls behind slower group members show up on
		// the sync track next to the subtask spans.
		rec := w.rec.Load()
		var barrierStart time.Time
		if rec != nil {
			barrierStart = time.Now()
		}
		d, err := w.barrier(BarrierArgs{
			Job: job, Worker: w.name, Iteration: iter, Epoch: epoch,
			CompSeconds: compSecs, NetSeconds: netSecs, Loss: loss,
		})
		if rec != nil {
			rec.Record(obs.PhaseBarrier, job, iter, barrierStart, time.Now())
		}
		if err != nil || d != Continue {
			return
		}
	}
	_ = w.jobDone(JobDoneArgs{Job: job, Worker: w.name, Epoch: epoch})
}

// materializeShard assembles the shard view for one COMP subtask, paying
// reload latency for spilled blocks (the §IV-C stall when the background
// reloader has not caught up) and decoding only blocks the cache lost to
// eviction. A fully resident shard takes the zero-allocation fast path:
// the assembled view from the previous iteration is still valid because
// no eviction bumped the cache generation.
//
// An error — a missing block, a failed reload, a corrupt payload — means
// the shard cannot be assembled whole; the caller tears the job down
// rather than training on partial data with a silently wrong loss.
func (st *jobState) materializeShard() (*mlapp.Shard, error) {
	blocks := st.store.Blocks()
	// The generation is sampled before assembly: if an eviction races the
	// loop below, the stored generation won't match and the next
	// iteration re-assembles.
	gen := st.cache.generation()
	if st.assembled != nil && st.assembledGen == gen {
		st.cache.recordHits(int64(blocks))
		return st.assembled, nil
	}
	st.examplesBuf = st.examplesBuf[:0]
	for b := 0; b < blocks; b++ {
		// Prefetch the next block while decoding this one.
		st.store.Prefetch(b + 1)
		examples, err := st.cache.get(st.store, b)
		if err != nil {
			st.assembled = nil
			return nil, fmt.Errorf("materialize shard: %w", err)
		}
		st.examplesBuf = append(st.examplesBuf, examples...)
	}
	// Re-apply the spill target: reloaded blocks beyond the α budget go
	// back to disk (their cache entries are invalidated by the Evict
	// notification, which is why the fast path only holds for fully
	// resident shards).
	if err := st.store.SetAlpha(st.store.Alpha()); err != nil {
		st.assembled = nil
		return nil, fmt.Errorf("materialize shard: %w", err)
	}
	st.assembled = &mlapp.Shard{
		Kind: st.shard.Kind, RowOffset: st.shard.RowOffset,
		Examples: st.examplesBuf,
	}
	st.assembledGen = gen
	return st.assembled, nil
}

func (w *Worker) handleDropJob(a DropJobArgs) (Ack, error) {
	w.mu.Lock()
	st, ok := w.jobs[a.Job]
	if ok {
		delete(w.jobs, a.Job)
	}
	w.mu.Unlock()
	if !ok {
		return Ack{}, nil
	}
	close(st.stopCh)
	st.client.Close()
	st.store.Close()
	return Ack{}, nil
}

func (w *Worker) handleSetAlpha(a SetAlphaArgs) (Ack, error) {
	w.mu.Lock()
	st, ok := w.jobs[a.Job]
	w.mu.Unlock()
	if !ok {
		return Ack{}, fmt.Errorf("worker %s: job %q not loaded", w.name, a.Job)
	}
	return Ack{}, st.store.SetAlpha(a.Alpha)
}

func (w *Worker) handleUpdatePS(a UpdatePSArgs) (Ack, error) {
	w.mu.Lock()
	st, ok := w.jobs[a.Job]
	w.mu.Unlock()
	if !ok {
		return Ack{}, fmt.Errorf("worker %s: job %q not loaded", w.name, a.Job)
	}
	if err := st.client.SetServers(a.Servers); err != nil {
		return Ack{}, fmt.Errorf("worker %s: update ps: %w", w.name, err)
	}
	return Ack{}, nil
}

func (w *Worker) handleStats(a StatsArgs) (StatsReply, error) {
	cpu, net := w.exec.Utilization()
	w.mu.Lock()
	jobs := len(w.jobs)
	w.mu.Unlock()
	reply := StatsReply{CPUUtil: cpu, NetUtil: net, Jobs: jobs,
		Comm: metrics.Comm.Snapshot(), Comp: metrics.Comp.Snapshot(),
		CommProcess: metrics.ProcessID()}
	if rec := w.rec.Load(); rec != nil {
		if a.SpanAfter != SpanCursorNone {
			reply.Spans = rec.SpansAfter(a.SpanAfter, nil)
		}
		reply.PhaseHist = rec.HistSnapshots()
	}
	return reply, nil
}

// EnableTracing attaches a span recorder of the given ring capacity
// (<= 0 selects obs.DefaultSpanCapacity) to this worker and its subtask
// executor. Call before starting jobs; spans and phase histograms then
// ride StatsReply back to the master.
func (w *Worker) EnableTracing(capacity int) {
	if capacity <= 0 {
		capacity = obs.DefaultSpanCapacity
	}
	r := obs.NewRecorder(capacity)
	w.rec.Store(r)
	w.exec.SetRecorder(r)
}

// SetCompParallelism bounds the fused COMP kernel's core pool (0 restores
// the GOMAXPROCS default). Results are bit-identical at any setting; only
// wall time changes. Safe to call while jobs run — the next COMP subtask
// picks it up.
func (w *Worker) SetCompParallelism(n int) {
	w.compWorkers.Store(int32(parallel.Workers(n)))
}

// Accepted reports how many connections the worker's RPC server (which
// hosts its parameter server) has accepted: the master's, and one per
// group-mate PS client of every job loaded on the worker's group.
func (w *Worker) Accepted() uint64 { return w.srv.Accepted() }

// Name reports the worker's registered name.
func (w *Worker) Name() string { return w.name }

// Close stops all jobs and tears the worker down.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	jobs := make([]*jobState, 0, len(w.jobs))
	for _, st := range w.jobs {
		jobs = append(jobs, st)
	}
	w.jobs = make(map[string]*jobState)
	w.mu.Unlock()
	for _, st := range jobs {
		close(st.stopCh)
	}
	w.master.Close() // unblocks barrier waits
	w.wg.Wait()
	for _, st := range jobs {
		st.client.Close()
		st.store.Close()
	}
	w.exec.Close()
	w.psrv.Close()
	w.srv.Close()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
