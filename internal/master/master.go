// Package master implements the live Harmony master (Fig. 6): it accepts
// worker registrations, submits Parameter-Server jobs across them,
// synchronizes every job's distributed iterations (the SubTask
// Synchronizer of Fig. 7), profiles subtask times, and regroups jobs with
// Algorithm 1 — pausing, checkpointing and migrating models between
// worker groups (§IV-B4).
package master

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/metrics"
	"harmony/internal/mlapp"
	"harmony/internal/profile"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// JobSpec describes one training job submission.
type JobSpec struct {
	Name       string
	Config     mlapp.Config
	Iterations int
	// Alpha is the initial disk-block spill ratio on each worker.
	Alpha float64
	// Seed drives synthetic data generation and model init.
	Seed int64
	// Queue names the admission queue (DESIGN.md §13); empty means the
	// default queue.
	Queue string
	// Priority orders jobs within a queue (higher first) and protects
	// running jobs from preemption (lowest-priority victims go first).
	Priority int
	// MinWorkers is the job's gang size: its full worker set places
	// atomically or the whole job holds — never partial. <= 1 means any
	// single worker suffices.
	MinWorkers int
	// MaxWorkers caps the placement size (0 = no cap). A flood of
	// MaxWorkers=1 jobs shares a cluster instead of serializing on it.
	MaxWorkers int
}

// JobStatus reports a job's lifecycle.
type JobStatus int

// Job states (§III). StatusPending and StatusCanceled extend the paper's
// lifecycle for the online control plane: pending jobs wait in the
// admission queue, canceled jobs were stopped by an operator.
const (
	StatusRunning JobStatus = iota + 1
	StatusPaused
	StatusFinished
	StatusPending
	StatusCanceled
)

// String names the state for status surfaces and metrics labels.
func (s JobStatus) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusPaused:
		return "paused"
	case StatusFinished:
		return "finished"
	case StatusPending:
		return "pending"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

type workerRef struct {
	name   string
	addr   string
	client *rpc.Client
}

type barrierState struct {
	arrived int
	waiters []chan worker.Directive
}

type job struct {
	spec    JobSpec
	workers []int // indexes into Master.workers
	status  JobStatus
	iter    int // last completed iteration (max over barriers)

	// queue and priority are the fair-scheduler coordinates (§13);
	// arrival is the submission sequence number (kept across preemption
	// so a reclaimed job resumes ahead of later arrivals in its queue),
	// startSeq the deployment sequence (recency for victim selection).
	queue    string
	priority int
	arrival  uint64
	startSeq uint64

	// prof carries the submitter's profile hints (§IV-B1 shape); live
	// profiled metrics supersede it once MinSamples have accumulated.
	prof core.JobInfo

	// epoch counts deployments of this job. Recovery and migration tear
	// a placement down while its stragglers may still have barrier or
	// done RPCs in flight; those echo the old epoch and are discarded so
	// they cannot pollute the new placement's barrier counts.
	epoch int

	barriers map[int]*barrierState
	doneFrom map[string]bool
	loss     float64

	// checkpoint is the latest background model snapshot (§VI fault
	// tolerance), covering checkpointIter.
	checkpoint     []float64
	checkpointIter int

	pauseRequested bool
	pausedCh       chan struct{} // closed when the pause takes effect
	finishedCh     chan struct{} // closed when all workers complete

	// measIter tracks measured iteration seconds as an EWMA of the wall
	// time between consecutive barrier releases; the decision journal
	// reports it beside the model's predicted T_itr.
	measIter    float64
	lastRelease time.Time

	// psServers overrides the job's parameter-server set when elastic
	// resizing has diverged it from the worker group (DESIGN.md §12);
	// nil means the default co-located placement. Reset on migration and
	// recovery, which rebuild model partitions on the new group.
	psServers []string

	// snap is the PS client every model snapshot of this job uses (the
	// periodic checkpoint, Pause, the Shutdown drain). It rides the
	// master's existing worker connections and caches the job's stripe
	// routes; snapKey is the server set it was built for, so a resize,
	// migration or recovery that changes the set rebuilds it. teardown
	// drops it.
	snap    *ps.Client
	snapKey string
}

// Master coordinates the live runtime. Create with New; stop with Close.
type Master struct {
	srv  *rpc.Server
	addr string

	// mu is a read/write split (DESIGN.md §15): status surfaces
	// (ListJobs, Job, Cluster, Counters, Queues, queue views, /metrics
	// scrapes) take the read side and no longer contend with admission,
	// which — like every state mutation — holds the write side.
	mu       sync.RWMutex
	workers  []workerRef
	jobs     map[string]*job
	pending  []*pendingJob
	profiles *profile.Store
	opts     core.Options
	counters counters
	draining bool
	closed   bool

	// pendingIdx indexes m.pending by job name so duplicate checks and
	// drain lookups are O(1) instead of scans of a 10K-deep queue.
	// Maintained by addPendingLocked/removePendingLocked.
	pendingIdx map[string]*pendingJob

	// Admission fast path (DESIGN.md §15). admitEpoch versions every
	// input of an admission decision: it is bumped (under mu's write
	// side) by any mutation of the live plan, the pending queue, the
	// worker set, or the queue policy. The drain pass stamps reject
	// verdicts with the epoch they were computed at and skips re-scoring
	// a held job until the epoch moves; the usage/free/held snapshots in
	// admitInputsLocked are cached on the same key. planMu guards the
	// cached live plan (planCache), which is built lazily under mu's
	// read side and cleared by invalidatePlanLocked (lock order:
	// mu → planMu).
	admitEpoch uint64
	planMu     sync.Mutex
	planCache  *livePlanCache
	inputEpoch uint64
	usageCache fair.Usage
	freeCache  []string
	heldCache  []fair.Held

	// The single drainer goroutine (drainLoop) replaces the historical
	// per-event `go m.drainQueue()` spawns: wakeups coalesce through the
	// 1-buffered drainCh, so a burst of holds and completions triggers
	// one batched pass instead of a goroutine storm.
	drainCh       chan struct{}
	drainStop     chan struct{}
	drainStopOnce sync.Once

	// Fair-scheduler state (fairsched.go): the active queue policy, a
	// per-queue counter ledger, the arrival/deployment sequence clocks,
	// and the reclaim latch that serializes preemption rounds.
	fairsched  *fair.Scheduler
	qcounters  map[string]*queueCounters
	arrivalSeq uint64
	deploySeq  uint64
	reclaiming bool

	// journal records scheduler decisions (always on; bounded ring).
	// trace, when non-nil, collects worker spans for /v1/trace.
	journal *journal
	trace   *traceState

	// phases caches solved comm-interleaving state per live co-location
	// group (interleave.go); only populated when opts.NetModel is on.
	phases map[string]*groupPhase

	// Hot-stripe rebalancer state (psstats.go): the balancer has its own
	// lock so scrape rounds never hold Master.mu across RPCs. psOpMu
	// serializes rebalance rounds with ResizeJobServers — a round planned
	// against a pre-resize server set must not execute while servers
	// drain out of it. Lock order: psOpMu → mu → psMu.
	psMu     sync.Mutex
	balancer *ps.Balancer
	psOpMu   sync.Mutex
	psStop   chan struct{}
	psWG     sync.WaitGroup

	// background tracks completion teardowns and periodic checkpoints,
	// which run off the barrier and done RPC handlers; Close waits for
	// them before closing the worker connections they borrow. Adds happen
	// under mu while !closed.
	background sync.WaitGroup
}

// New starts a master listening on addr ("127.0.0.1:0" for tests).
func New(addr string, opts core.Options) (*Master, error) {
	m := &Master{
		srv:        rpc.NewServer(),
		jobs:       make(map[string]*job),
		pendingIdx: make(map[string]*pendingJob),
		profiles:   profile.NewStore(profile.DefaultEWMAAlpha),
		opts:       opts,
		journal:    newJournal(DefaultJournalCapacity),
		fairsched:  fair.Default(),
		qcounters:  make(map[string]*queueCounters),
		phases:     make(map[string]*groupPhase),
		admitEpoch: 1,
		drainCh:    make(chan struct{}, 1),
		drainStop:  make(chan struct{}),
	}
	go m.drainLoop()
	m.srv.Handle("master.register", rpc.Typed(m.handleRegister))
	// Barrier and done calls carry the binary frames of worker/barrier.go.
	// They stay off the inline path: a barrier parks until its group
	// arrives.
	m.srv.Handle(worker.MethodBarrier, m.serveBarrier)
	m.srv.Handle(worker.MethodJobDone, m.serveJobDone)
	bound, err := m.srv.Listen(addr)
	if err != nil {
		return nil, err
	}
	m.addr = bound
	return m, nil
}

// Addr is the master's RPC address for workers to dial.
func (m *Master) Addr() string { return m.addr }

type registerArgs struct {
	Name string
	Addr string
}

func (m *Master) handleRegister(a registerArgs) (worker.Ack, error) {
	client, err := rpc.Dial(a.Addr, 10*time.Second)
	if err != nil {
		return worker.Ack{}, fmt.Errorf("master: dial back worker %s: %w", a.Name, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		client.Close()
		return worker.Ack{}, rpc.ErrClosed
	}
	for _, w := range m.workers {
		if w.name == a.Name {
			client.Close()
			return worker.Ack{}, fmt.Errorf("master: duplicate worker name %q", a.Name)
		}
	}
	m.workers = append(m.workers, workerRef{name: a.Name, addr: a.Addr, client: client})
	// A new worker extends the free list: cached admission inputs (and
	// reject verdicts) are stale. Appending leaves existing worker
	// indexes — and so the live plan — intact.
	m.admitEpoch++
	return worker.Ack{}, nil
}

// WaitForWorkers blocks until n workers have registered.
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.RLock()
		got := len(m.workers)
		m.mu.RUnlock()
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("master: %d of %d workers after %s", got, n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Workers reports registered worker names.
func (m *Master) Workers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, len(m.workers))
	for i, w := range m.workers {
		names[i] = w.name
	}
	return names
}

// Submit loads and starts a job across the given workers (all registered
// workers when group is nil), bypassing the admission queue.
func (m *Master) Submit(spec JobSpec, group []string) error {
	return m.submitPending(&pendingJob{spec: spec, info: core.JobInfo{ID: spec.Name}}, group)
}

// submitPending deploys a (possibly previously preempted) job onto a
// worker group. The pendingJob carries the admission path's profile
// hints, the queue coordinates, and — after a preemption — the
// checkpoint frame to restore from.
func (m *Master) submitPending(p *pendingJob, group []string) error {
	spec := p.spec
	if spec.Name == "" || spec.Iterations <= 0 {
		return errors.New("master: job needs a name and positive iterations")
	}
	m.mu.Lock()
	if m.draining || m.closed {
		m.mu.Unlock()
		return ErrDraining
	}
	if m.knownLocked(spec.Name) {
		m.mu.Unlock()
		return fmt.Errorf("master: duplicate job %q: %w", spec.Name, ErrDuplicateJob)
	}
	queue := spec.Queue
	if queue == "" {
		queue = fair.DefaultQueue
	}
	if !m.fairsched.Has(queue) {
		m.mu.Unlock()
		return fmt.Errorf("master: %w %q", ErrUnknownQueue, queue)
	}
	idxs, err := m.workerIndexesLocked(group)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if p.seq == 0 {
		m.arrivalSeq++
		p.seq = m.arrivalSeq
	}
	m.deploySeq++
	j := &job{
		// epoch advances past every prior deployment of this name, so a
		// preempted placement's stragglers stay stale after the resume.
		spec: spec, workers: idxs, status: StatusRunning, prof: p.info, epoch: p.epoch + 1,
		queue: queue, priority: spec.Priority, arrival: p.seq, startSeq: m.deploySeq,
		barriers:   make(map[int]*barrierState),
		doneFrom:   make(map[string]bool),
		pausedCh:   make(chan struct{}),
		finishedCh: p.finishedCh,
	}
	if j.finishedCh == nil {
		j.finishedCh = make(chan struct{})
	}
	fromIter := 0
	if p.resume != nil {
		fromIter = p.resumeIter
		j.iter = fromIter - 1
		j.checkpoint = p.resume
		j.checkpointIter = fromIter - 1
	}
	m.jobs[spec.Name] = j
	m.invalidatePlanLocked()
	m.mu.Unlock()

	if err := m.deploy(j, p.resume, fromIter); err != nil {
		// Part of the gang may already run and park at a barrier the rest
		// will never reach. Release it and drop whatever loaded before the
		// job leaves m.jobs, where Close could still have found it. A
		// retry of p deploys under a fresh epoch.
		m.mu.Lock()
		m.releaseBarriersLocked(j, worker.Stop)
		refs := m.placementRefsLocked(j)
		delete(m.jobs, spec.Name)
		p.epoch = j.epoch
		m.invalidatePlanLocked()
		m.mu.Unlock()
		m.teardown(spec.Name, refs)
		return err
	}
	return nil
}

func (m *Master) workerIndexesLocked(group []string) ([]int, error) {
	if len(m.workers) == 0 {
		return nil, errors.New("master: no workers registered")
	}
	if group == nil {
		idxs := make([]int, len(m.workers))
		for i := range idxs {
			idxs[i] = i
		}
		return idxs, nil
	}
	var idxs []int
	for _, name := range group {
		found := -1
		for i, w := range m.workers {
			if w.name == name {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("master: %w %q", ErrUnknownWorker, name)
		}
		idxs = append(idxs, found)
	}
	if len(idxs) == 0 {
		return nil, errors.New("master: empty worker group")
	}
	return idxs, nil
}

// deploy loads a job onto its worker group and starts iterating; restore
// carries checkpointed model parameters for migrations.
func (m *Master) deploy(j *job, restore []float64, fromIter int) error {
	m.mu.Lock()
	epoch := j.epoch
	refs := make([]workerRef, len(j.workers))
	for i, wi := range j.workers {
		refs[i] = m.workers[wi]
	}
	m.mu.Unlock()
	servers := make([]string, len(refs))
	for i, r := range refs {
		servers[i] = r.addr
	}
	for i, r := range refs {
		args := worker.LoadJobArgs{
			Job: j.spec.Name, Config: j.spec.Config, Servers: servers,
			ShardIndex: i, ShardCount: len(refs), Seed: j.spec.Seed,
			InitModel: i == 0, Alpha: j.spec.Alpha,
		}
		if i == 0 && restore != nil {
			// Checkpointed models ride the data plane's float-frame codec:
			// a gob []float64 would walk every element reflectively, which
			// for large models would drag migration/recovery back onto the
			// slow plane PR 3 retired.
			args.RestoreFrame = rpc.AppendFloats(nil, restore)
		}
		if _, err := rpc.Invoke[worker.LoadJobArgs, worker.Ack](r.client,
			worker.MethodLoadJob, args, time.Minute); err != nil {
			return fmt.Errorf("master: load %s on %s: %w", j.spec.Name, r.name, err)
		}
	}
	for _, r := range refs {
		if _, err := rpc.Invoke[worker.StartJobArgs, worker.Ack](r.client,
			worker.MethodStartJob, worker.StartJobArgs{
				Job: j.spec.Name, FromIteration: fromIter, Iterations: j.spec.Iterations,
				Epoch: epoch,
			}, time.Minute); err != nil {
			return fmt.Errorf("master: start %s on %s: %w", j.spec.Name, r.name, err)
		}
	}
	return nil
}

// serveBarrier is the raw handler of worker.MethodBarrier: it decodes
// the barrier frame, runs the barrier and answers with one directive
// byte.
func (m *Master) serveBarrier(raw []byte) ([]byte, error) {
	a, err := worker.ReadBarrierArgs(raw)
	if err != nil {
		return nil, err
	}
	d, err := m.handleBarrier(a)
	if err != nil {
		return nil, err
	}
	return worker.AppendDirective(rpc.GetBuffer(1)[:0], d), nil
}

// serveJobDone is the raw handler of worker.MethodJobDone; its reply is
// empty.
func (m *Master) serveJobDone(raw []byte) ([]byte, error) {
	a, err := worker.ReadJobDoneArgs(raw)
	if err != nil {
		return nil, err
	}
	m.handleJobDone(a)
	return nil, nil
}

// handleBarrier blocks each worker until the whole group reaches the
// iteration boundary, then releases them with the pending directive.
func (m *Master) handleBarrier(a worker.BarrierArgs) (worker.Directive, error) {
	m.mu.Lock()
	j, ok := m.jobs[a.Job]
	if !ok {
		m.mu.Unlock()
		return worker.Stop, nil
	}
	if j.status == StatusCanceled || j.status == StatusFinished {
		// A canceled job's stragglers must not park at a barrier no
		// group-mate will ever reach.
		m.mu.Unlock()
		return worker.Stop, nil
	}
	if a.Epoch != j.epoch {
		// Straggler from a placement that recovery or migration already
		// tore down; counting it would desync the new group's barrier.
		m.mu.Unlock()
		return worker.Stop, nil
	}
	if m.draining || m.closed {
		// Wind-down: a barrier call that parked here after Close released
		// the existing waiters would pin the RPC server's handler wait
		// group until the barrier timeout.
		m.mu.Unlock()
		return worker.Stop, nil
	}
	// Every observation can move the scheduler-visible profile (the EWMA
	// supersedes submission hints once MinSamples accumulate), so the
	// cached plan is stale; the same bump covers the pause flip below. A
	// rejected sample (negative or non-finite seconds) is counted, not
	// folded in.
	if err := m.profiles.Observe(a.Job, len(j.workers), a.CompSeconds, a.NetSeconds); err != nil {
		m.counters.profileRejects++
	}
	m.invalidatePlanLocked()
	j.loss = a.Loss
	if a.Iteration > j.iter {
		j.iter = a.Iteration
	}
	bs := j.barriers[a.Iteration]
	if bs == nil {
		bs = &barrierState{}
		j.barriers[a.Iteration] = bs
	}
	bs.arrived++
	if bs.arrived < len(j.workers) {
		ch := make(chan worker.Directive, 1)
		bs.waiters = append(bs.waiters, ch)
		m.mu.Unlock()
		select {
		case d := <-ch:
			return d, nil
		case <-time.After(5 * time.Minute):
			return worker.Stop, errors.New("master: barrier timed out")
		}
	}
	// Last arrival: release the whole group. The wall time between
	// releases is the measured group iteration time the journal compares
	// against the model's prediction.
	now := time.Now()
	if !j.lastRelease.IsZero() {
		dt := now.Sub(j.lastRelease).Seconds()
		if j.measIter <= 0 {
			j.measIter = dt
		} else {
			j.measIter = 0.3*dt + 0.7*j.measIter
		}
	}
	j.lastRelease = now
	d := worker.Continue
	if j.pauseRequested {
		d = worker.Pause
		j.status = StatusPaused
		j.pauseRequested = false
		close(j.pausedCh)
	}
	// The barrier entry is deleted under the lock BEFORE the staggered
	// release below: once gone, Close and RemoveWorker can no longer see
	// these waiters, so the post-sleep sends are the only sends.
	delete(j.barriers, a.Iteration)
	if d == worker.Continue {
		m.maybeCheckpoint(j, a.Iteration)
	}
	var stagger time.Duration
	if d == worker.Continue {
		// CASSINI-style phase enforcement (interleave.go): hold the whole
		// group briefly so its next comm windows land on the solved offset.
		stagger = m.phaseDelayLocked(a.Job, now)
	}
	waiters := bs.waiters
	m.mu.Unlock()
	if stagger > 0 {
		time.Sleep(stagger)
	}
	for _, ch := range waiters {
		ch <- d
	}
	return d, nil
}

// releaseBarriersLocked answers every worker parked at one of the job's
// barriers with d and forgets the barriers. Caller holds mu.
func (m *Master) releaseBarriersLocked(j *job, d worker.Directive) {
	for _, bs := range j.barriers {
		for _, ch := range bs.waiters {
			ch <- d
		}
	}
	j.barriers = make(map[int]*barrierState)
}

func (m *Master) handleJobDone(a worker.JobDoneArgs) {
	m.mu.Lock()
	j, ok := m.jobs[a.Job]
	if !ok || a.Epoch != j.epoch {
		m.mu.Unlock()
		return
	}
	j.doneFrom[a.Worker] = true
	if len(j.doneFrom) < len(j.workers) || j.status == StatusFinished || j.status == StatusCanceled {
		m.mu.Unlock()
		return
	}
	// Freeze the final measured values into the completion event before
	// the job leaves the live plan.
	iter, ucpu, unet := m.measuredLocked(a.Job, j)
	m.journal.append(Event{
		Kind: EventComplete, Job: a.Job,
		MeasuredIterSeconds: iter,
		MeasuredCPUUtil:     ucpu,
		MeasuredNetUtil:     unet,
	})
	j.status = StatusFinished
	m.invalidatePlanLocked()
	close(j.finishedCh)
	// A completion frees capacity: drain the admission queue (§IV-B4).
	m.wakeDrainer()
	if m.closed {
		m.mu.Unlock()
		return
	}
	// Every worker has reported, so none still pulls: release the
	// finished placement's shards and partitions off this handler.
	refs := m.placementRefsLocked(j)
	m.background.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.background.Done()
		m.teardown(a.Job, refs)
	}()
}

// WaitJob blocks until the job completes.
func (m *Master) WaitJob(name string, timeout time.Duration) error {
	m.mu.RLock()
	var ch chan struct{}
	if j, ok := m.jobs[name]; ok {
		ch = j.finishedCh
	} else if p := m.pendingByNameLocked(name); p != nil {
		// A held job is known work: it completes after a drain (or a
		// resume from preemption) eventually deploys it. The channel
		// survives the pending→deployed transition.
		ch = p.finishedCh
	}
	m.mu.RUnlock()
	if ch == nil {
		return fmt.Errorf("master: %w %q", ErrUnknownJob, name)
	}
	select {
	case <-ch:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("master: job %q not finished after %s", name, timeout)
	}
}

// Status reports a job's state, last completed iteration, and loss.
func (m *Master) Status(name string) (JobStatus, int, float64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	j, ok := m.jobs[name]
	if !ok {
		return 0, 0, 0, fmt.Errorf("master: unknown job %q", name)
	}
	return j.status, j.iter, j.loss, nil
}

// Metrics exposes the profiled (T_cpu, T_net) estimates for a job.
func (m *Master) Metrics(name string) (profile.Metrics, bool) {
	return m.profiles.Metrics(name)
}

// Pause stops a job at its next iteration boundary and returns its model
// checkpoint (§IV-B4: "waits until ongoing iteration ends, stops the
// subtasks of the job, and checkpoints the model parameters").
func (m *Master) Pause(name string, timeout time.Duration) ([]float64, error) {
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok || j.status != StatusRunning {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: job %q not running", name)
	}
	j.pauseRequested = true
	pausedCh := j.pausedCh
	finishedCh := j.finishedCh
	m.mu.Unlock()

	select {
	case <-pausedCh:
	case <-finishedCh:
		return nil, fmt.Errorf("master: job %q finished before pausing", name)
	case <-time.After(timeout):
		return nil, fmt.Errorf("master: pause of %q timed out", name)
	}
	return m.snapshot(j, time.Minute)
}

// Resume migrates a paused job onto a (possibly different) worker group,
// restoring the checkpointed model; input shards are regenerated, not
// migrated (§IV-B4).
func (m *Master) Resume(name string, group []string, checkpoint []float64) error {
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok || j.status != StatusPaused {
		m.mu.Unlock()
		return fmt.Errorf("master: job %q not paused", name)
	}
	idxs, err := m.workerIndexesLocked(group)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	oldRefs := m.placementRefsLocked(j)
	fromIter := j.iter + 1
	j.workers = idxs
	j.status = StatusRunning
	j.pausedCh = make(chan struct{})
	j.barriers = make(map[int]*barrierState)
	j.psServers = nil // deploy rebuilds model partitions on the new group
	j.epoch++         // the pre-migration placement must not reach the new barriers
	m.counters.migrations++
	// The job moved groups: refresh the cached plan before stamping the
	// migration event with the prediction for the placement it now joins;
	// the measured EWMA restarts on the new placement.
	m.invalidatePlanLocked()
	ev := m.stampJobPlacementLocked(Event{Kind: EventMigrate, Job: name, Group: group})
	j.measIter = 0
	j.lastRelease = time.Time{}
	m.mu.Unlock()
	m.journal.append(ev)

	// Tear the old placement down; shards and model partitions are
	// rebuilt on the new group.
	m.teardown(name, oldRefs)
	if err := m.deploy(j, checkpoint, fromIter); err != nil {
		return err
	}
	// A regroup reshapes the plan; retry held jobs against it (§IV-B4).
	m.wakeDrainer()
	return nil
}

// serverAddrsLocked lists the PS addresses of a job's current group,
// preferring an elastically resized server set when one is live.
func (m *Master) serverAddrsLocked(j *job) []string {
	if j.psServers != nil {
		return append([]string(nil), j.psServers...)
	}
	addrs := make([]string, len(j.workers))
	for i, wi := range j.workers {
		addrs[i] = m.workers[wi].addr
	}
	return addrs
}

// PlanGroups runs Algorithm 1 over the currently profiled jobs, mapping
// machine counts to concrete worker subsets. It returns job→workers
// assignments without applying them; callers migrate via Pause/Resume.
func (m *Master) PlanGroups() (map[string][]string, error) {
	m.mu.RLock()
	var infos []core.JobInfo
	for name := range m.jobs {
		if met, ok := m.profiles.Metrics(name); ok && met.Profiled() {
			infos = append(infos, core.JobInfo{
				ID:   name,
				Comp: met.CompMachineSeconds,
				Net:  met.NetSeconds,
			})
		}
	}
	total := len(m.workers)
	names := make([]string, len(m.workers))
	for i, w := range m.workers {
		names[i] = w.name
	}
	m.mu.RUnlock()
	if len(infos) == 0 {
		return nil, errors.New("master: no profiled jobs to plan")
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].ID < infos[b].ID })
	plan := core.Schedule(infos, total, m.opts)
	if len(plan.Groups) == 0 {
		return nil, errors.New("master: scheduler produced no groups")
	}
	out := make(map[string][]string)
	next := 0
	for _, g := range plan.Groups {
		take := g.Machines
		if next+take > total {
			take = total - next
		}
		if take < 1 {
			take = 1
			next = total - 1
		}
		members := names[next : next+take]
		next += take
		for _, job := range g.Jobs {
			out[job.ID] = members
		}
	}
	return out, nil
}

// WorkerStats aggregates executor utilization across workers.
func (m *Master) WorkerStats() (cpu, net float64, err error) {
	m.mu.RLock()
	refs := append([]workerRef(nil), m.workers...)
	m.mu.RUnlock()
	if len(refs) == 0 {
		return 0, 0, errors.New("master: no workers")
	}
	for _, r := range refs {
		st, err := rpc.Invoke[worker.StatsArgs, worker.StatsReply](r.client,
			worker.MethodStats, worker.StatsArgs{SpanAfter: worker.SpanCursorNone},
			time.Minute)
		if err != nil {
			return 0, 0, err
		}
		cpu += st.CPUUtil
		net += st.NetUtil
	}
	return cpu / float64(len(refs)), net / float64(len(refs)), nil
}

// CommStats sums data-plane traffic across the cluster: this process's
// counters (checkpoints and snapshots ride the same data plane) plus
// every worker's, deduplicated by owning process so in-process workers —
// which share this process's global counters — are counted once. Worker
// stats are best effort: a worker mid-restart is skipped, not an error.
func (m *Master) CommStats() metrics.CommSnapshot {
	m.mu.RLock()
	refs := append([]workerRef(nil), m.workers...)
	m.mu.RUnlock()
	perProcess := map[string]metrics.CommSnapshot{
		metrics.ProcessID(): metrics.Comm.Snapshot(),
	}
	for _, r := range refs {
		st, err := rpc.Invoke[worker.StatsArgs, worker.StatsReply](r.client,
			worker.MethodStats, worker.StatsArgs{SpanAfter: worker.SpanCursorNone},
			time.Minute)
		if err != nil {
			continue
		}
		perProcess[st.CommProcess] = st.Comm
	}
	var sum metrics.CommSnapshot
	for _, s := range perProcess {
		sum = sum.Add(s)
	}
	return sum
}

// CompStats sums compute-path health (decoded-block cache hits/misses,
// reload-stall seconds) across the cluster with the same per-process
// deduplication and best-effort semantics as CommStats.
func (m *Master) CompStats() metrics.CompSnapshot {
	m.mu.RLock()
	refs := append([]workerRef(nil), m.workers...)
	m.mu.RUnlock()
	perProcess := map[string]metrics.CompSnapshot{
		metrics.ProcessID(): metrics.Comp.Snapshot(),
	}
	for _, r := range refs {
		st, err := rpc.Invoke[worker.StatsArgs, worker.StatsReply](r.client,
			worker.MethodStats, worker.StatsArgs{SpanAfter: worker.SpanCursorNone},
			time.Minute)
		if err != nil {
			continue
		}
		perProcess[st.CommProcess] = st.Comp
	}
	var sum metrics.CompSnapshot
	for _, s := range perProcess {
		sum = sum.Add(s)
	}
	return sum
}

// Close releases all barriers with Stop and shuts the master down.
func (m *Master) Close() {
	// Signal the drainer first; it exits after at most one more round
	// (each round re-checks m.closed under the lock).
	m.drainStopOnce.Do(func() { close(m.drainStop) })
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	psStop := m.psStop
	m.psStop = nil
	for _, j := range m.jobs {
		m.releaseBarriersLocked(j, worker.Stop)
	}
	clients := make([]*rpc.Client, 0, len(m.workers))
	for _, w := range m.workers {
		clients = append(clients, w.client)
	}
	m.mu.Unlock()
	if psStop != nil {
		close(psStop)
	}
	m.psWG.Wait()
	m.background.Wait()
	for _, c := range clients {
		c.Close()
	}
	m.srv.Close()
}
