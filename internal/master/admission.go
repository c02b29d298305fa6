package master

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/worker"
	"harmony/internal/workload"
)

// Sentinel errors surfaced by the control plane; callers match them with
// errors.Is to pick HTTP status codes.
var (
	// ErrDuplicateJob marks a submission that reuses a known job name.
	ErrDuplicateJob = errors.New("duplicate job")
	// ErrUnknownJob marks an operation on a name the master never saw.
	ErrUnknownJob = errors.New("unknown job")
	// ErrJobFinished marks a cancel of a job that already completed.
	ErrJobFinished = errors.New("job already finished")
	// ErrDraining rejects submissions while the master shuts down.
	ErrDraining = errors.New("master is draining")
	// ErrUnknownWorker marks a placement naming an unregistered worker.
	ErrUnknownWorker = errors.New("unknown worker")
)

// Profile carries a submitter's cost estimates for a job that has not run
// yet, in the scheduler's units (§IV-B1): aggregate COMP machine-seconds
// and per-machine COMM seconds per iteration, plus memory footprint
// parameters. The zero value means "unprofiled" — such a job cannot be
// placed by the arrival rule while other jobs run and waits in the queue
// until the cluster goes idle.
type Profile struct {
	CompSeconds float64
	NetSeconds  float64
	InputGB     float64
	ModelGB     float64
	WorkGB      float64
}

func (p Profile) info(name string) core.JobInfo {
	return core.JobInfo{
		ID:      name,
		Comp:    p.CompSeconds,
		Net:     p.NetSeconds,
		InputGB: p.InputGB, ModelGB: p.ModelGB, WorkGB: p.WorkGB,
		JVMHeapFactor: workload.JVMHeapFactor,
	}
}

// Admission reports the outcome of an Enqueue.
type Admission struct {
	// Admitted is true when the job was placed and started immediately;
	// false means it is held pending in the queue.
	Admitted bool
	// Workers is the group the job was placed on when admitted.
	Workers []string
}

type pendingJob struct {
	spec JobSpec
	info core.JobInfo
	// Fair-scheduler coordinates (DESIGN.md §13): the resolved queue,
	// the job's priority, and its arrival sequence number (FIFO within
	// equal priority; preserved across preemption so a reclaimed job
	// resumes ahead of later arrivals in its queue).
	queue    string
	priority int
	seq      uint64
	// holdReason classifies why the job waits (fair.Hold*).
	holdReason string
	// resume carries a preempted job's checkpoint frame; on re-admission
	// the job restores it and continues from resumeIter. finishedCh and
	// epoch survive the preemption so WaitJob callers stay parked and
	// stragglers of the suspended placement stay stale.
	resume     []float64
	resumeIter int
	finishedCh chan struct{}
	epoch      int
	// rejectEpoch caches the admission epoch at which the drain pass last
	// rejected this job (DESIGN.md §15): until the epoch moves — some
	// admission input changed — re-scoring it would reproduce the same
	// verdict, so the pass skips it.
	rejectEpoch uint64
}

// demand is the gang size the job must place atomically.
func (p *pendingJob) demand() int {
	if p.spec.MinWorkers > 1 {
		return p.spec.MinWorkers
	}
	return 1
}

// counters aggregates control-plane events; guarded by Master.mu.
type counters struct {
	admittedInitial    int64
	admittedArrival    int64
	heldPending        int64
	queueDrained       int64
	canceled           int64
	preempted          int64
	migrations         int64
	recoveries         int64
	checkpointFailures int64
	teardownFailures   int64
	profileRejects     int64
}

// Counters is a snapshot of the master's control-plane counters.
type Counters struct {
	// AdmittedInitial counts jobs started on an idle cluster.
	AdmittedInitial int64
	// AdmittedArrival counts jobs placed into a running group by the
	// §IV-B4 arrival rule.
	AdmittedArrival int64
	// HeldPending counts submissions the arrival rule rejected.
	HeldPending int64
	// QueueDrained counts pending jobs later admitted by a drain pass.
	QueueDrained int64
	// Canceled counts operator cancellations (pending or running).
	Canceled int64
	// Preempted counts running jobs the fair scheduler reclaimed and
	// requeued as resumable held jobs (DESIGN.md §13).
	Preempted int64
	// Migrations counts pause/resume group moves.
	Migrations int64
	// Recoveries counts failure-triggered job restarts.
	Recoveries int64
	// CheckpointFailures counts background model snapshots that failed
	// and were dropped.
	CheckpointFailures int64
	// TeardownFailures counts drop RPCs that failed while a placement
	// was torn down, one per worker and method (teardown.go).
	TeardownFailures int64
	// ProfileRejects counts barrier profile samples the profile store
	// refused (negative or non-finite COMP/COMM seconds).
	ProfileRejects int64
}

// Counters snapshots the control-plane counters.
func (m *Master) Counters() Counters {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Counters{
		AdmittedInitial:    m.counters.admittedInitial,
		AdmittedArrival:    m.counters.admittedArrival,
		HeldPending:        m.counters.heldPending,
		QueueDrained:       m.counters.queueDrained,
		Canceled:           m.counters.canceled,
		Preempted:          m.counters.preempted,
		Migrations:         m.counters.migrations,
		Recoveries:         m.counters.recoveries,
		CheckpointFailures: m.counters.checkpointFailures,
		TeardownFailures:   m.counters.teardownFailures,
		ProfileRejects:     m.counters.profileRejects,
	}
}

// knownLocked reports whether a job name is taken by a deployed or a
// pending job.
func (m *Master) knownLocked(name string) bool {
	if _, ok := m.jobs[name]; ok {
		return true
	}
	_, ok := m.pendingIdx[name]
	return ok
}

// Enqueue submits a job through the online admission path of §IV-B4
// under the fair policy (DESIGN.md §13): the job places atomically into
// a running group (the arrival rule) or onto free workers — an idle
// cluster is the degenerate case — unless its queue's quota gates the
// borrow, in which case it holds with a reason. Pending jobs are
// retried in deficit-weighted fair order whenever a job completes, a
// migration reshapes the plan, or a job is canceled or preempted.
func (m *Master) Enqueue(spec JobSpec, prof Profile) (Admission, error) {
	if spec.Name == "" || spec.Iterations <= 0 {
		return Admission{}, errors.New("master: job needs a name and positive iterations")
	}
	if spec.MaxWorkers > 0 && spec.MinWorkers > spec.MaxWorkers {
		return Admission{}, fmt.Errorf("master: job %q wants min %d > max %d workers",
			spec.Name, spec.MinWorkers, spec.MaxWorkers)
	}
	info := prof.info(spec.Name)
	m.mu.Lock()
	if m.draining || m.closed {
		m.mu.Unlock()
		return Admission{}, ErrDraining
	}
	if m.knownLocked(spec.Name) {
		m.mu.Unlock()
		return Admission{}, fmt.Errorf("master: duplicate job %q: %w", spec.Name, ErrDuplicateJob)
	}
	queue := spec.Queue
	if queue == "" {
		queue = fair.DefaultQueue
	}
	if !m.fairsched.Has(queue) {
		m.mu.Unlock()
		return Admission{}, fmt.Errorf("master: %w %q", ErrUnknownQueue, queue)
	}
	m.arrivalSeq++
	p := &pendingJob{spec: spec, info: info, queue: queue,
		priority: spec.Priority, seq: m.arrivalSeq}
	group, predicted, initial, ok, reason := m.admitLocked(spec, info)
	if !ok {
		p.holdReason = reason
		// Held work is waitable from the moment it is accepted: WaitJob
		// parks on this channel, which survives the pending→deployed
		// transition (and is closed by Cancel/Shutdown of a held job).
		p.finishedCh = make(chan struct{})
		m.addPendingLocked(p)
		m.counters.heldPending++
		m.qcLocked(queue).held++
		m.mu.Unlock()
		m.journal.append(Event{Kind: EventHold, Job: spec.Name,
			Note: "held: " + reason})
		// A hold in an under-quota queue may be reclaimable right now:
		// the drain pass evaluates preemption against the live plan.
		m.wakeDrainer()
		return Admission{}, nil
	}
	kind := EventAdmitArrival
	if initial {
		m.counters.admittedInitial++
		kind = EventAdmitInitial
	} else {
		m.counters.admittedArrival++
	}
	m.qcLocked(queue).admitted++
	m.mu.Unlock()
	m.journal.append(m.predictedEvent(Event{Kind: kind, Job: spec.Name, Group: group}, predicted))
	if err := m.submitPending(p, group); err != nil {
		return Admission{}, err
	}
	return Admission{Admitted: true, Workers: group}, nil
}

// buildLivePlanLocked derives the scheduler's view of the running
// cluster from scratch: jobs sharing a worker set form one group whose
// DoP is the set size. The parallel slice maps each group to its worker
// names. Group and job order are deterministic for a fixed cluster
// state. Most callers want livePlanLocked (fastpath.go), which caches
// the result between plan mutations.
func (m *Master) buildLivePlanLocked() (core.Plan, [][]string) {
	type bucket struct {
		idxs []int
		jobs []core.JobInfo
	}
	byKey := make(map[string]*bucket)
	var keys []string
	for name, j := range m.jobs {
		if j.status != StatusRunning {
			continue
		}
		idxs := append([]int(nil), j.workers...)
		sort.Ints(idxs)
		key := workerSetKey(idxs)
		b := byKey[key]
		if b == nil {
			b = &bucket{idxs: idxs}
			byKey[key] = b
			keys = append(keys, key)
		}
		b.jobs = append(b.jobs, m.jobInfoLocked(name, j))
	}
	sort.Strings(keys)
	var plan core.Plan
	var members [][]string
	for _, key := range keys {
		b := byKey[key]
		sort.Slice(b.jobs, func(a, c int) bool { return b.jobs[a].ID < b.jobs[c].ID })
		names := make([]string, len(b.idxs))
		for i, wi := range b.idxs {
			names[i] = m.workers[wi].name
		}
		plan.Groups = append(plan.Groups, core.Group{Jobs: b.jobs, Machines: len(b.idxs)})
		members = append(members, names)
	}
	return plan, members
}

// jobInfoLocked is the scheduler's view of one deployed job: runtime
// profiled metrics once enough samples accumulated, submission hints
// before that.
func (m *Master) jobInfoLocked(name string, j *job) core.JobInfo {
	info := j.prof
	info.ID = name
	if met, ok := m.profiles.Metrics(name); ok && met.Profiled() {
		info.Comp = met.CompMachineSeconds
		info.Net = met.NetSeconds
	}
	// The fitted serial floor (Synergy-style sensitivity) only feeds the
	// model when the net-aware scheduler is on: with it off, TcpuAt must
	// reproduce Eq. 2 exactly.
	if m.opts.NetModel {
		if s, ok := m.profiles.Sensitivity(name); ok && s.Fitted() {
			info.CompFloor = s.CompFloorSeconds
		}
	}
	return info
}

// drainQueue retries held jobs in deficit-weighted fair order against
// the current plan (DESIGN.md §13), deploying every one the policy now
// accepts. When nothing admits but an under-quota queue's gang could
// place by reclaiming over-quota capacity, it preempts the selected
// victims through the pause/checkpoint path and retries. It runs on the
// single drainer goroutine (fastpath.go), woken after completions,
// migrations, cancellations, holds, and queue reconfigurations.
func (m *Master) drainQueue() {
	for {
		m.mu.Lock()
		if m.closed || m.draining || len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		usage, _, held := m.admitInputsLocked()
		ordered := m.fairsched.Order(held, usage, len(m.workers))
		var p *pendingJob
		var group []string
		var predicted core.GroupPrediction
		var initial bool
		for _, h := range ordered {
			cand := m.pendingByNameLocked(h.Job)
			if cand == nil {
				continue
			}
			if cand.rejectEpoch == m.admitEpoch {
				// Nothing this verdict depended on has changed since the
				// last pass rejected the job; skip the re-score.
				continue
			}
			g, pred, init, ok, reason := m.admitLocked(cand.spec, cand.info)
			if ok {
				p, group, predicted, initial = cand, g, pred, init
				break
			}
			cand.rejectEpoch = m.admitEpoch
			if cand.holdReason != fair.HoldPreempted {
				cand.holdReason = reason
			}
		}
		if p == nil {
			// Nothing places as-is: reclaim for the first under-quota gang
			// that preemption can unblock. The latch serializes rounds so
			// concurrent drains never double-preempt.
			target := m.reclaimTargetLocked(ordered)
			if target == nil || m.reclaiming {
				m.mu.Unlock()
				return
			}
			m.reclaiming = true
			beneficiary := target.p.queue
			victims := target.victims
			m.mu.Unlock()
			for _, v := range victims {
				m.preemptJob(v.Job, beneficiary)
			}
			m.mu.Lock()
			m.reclaiming = false
			m.mu.Unlock()
			continue
		}
		m.removePendingLocked(p)
		m.counters.queueDrained++
		if initial {
			m.counters.admittedInitial++
		} else {
			m.counters.admittedArrival++
		}
		m.qcLocked(p.queue).admitted++
		m.qcLocked(p.queue).drained++
		m.mu.Unlock()
		kind := EventQueueDrain
		note := ""
		if p.resume != nil {
			kind = EventResume
			note = fmt.Sprintf("resume from checkpoint iteration %d", p.resumeIter-1)
		}
		m.journal.append(m.predictedEvent(
			Event{Kind: kind, Job: p.spec.Name, Group: group, Note: note}, predicted))
		if err := m.submitPending(p, group); err != nil {
			// Deployment raced a worker failure or shutdown; requeue and
			// let the next drain retry rather than spinning here.
			m.mu.Lock()
			if !m.closed && !m.draining {
				m.addPendingLocked(p)
			}
			m.mu.Unlock()
			return
		}
	}
}

// Cancel removes a pending job from the queue, or stops a deployed job:
// its barriers are released with Stop, its shards and model partitions
// are dropped from the workers, and waiters are unblocked.
func (m *Master) Cancel(name string) error {
	m.mu.Lock()
	if p := m.pendingByNameLocked(name); p != nil {
		m.removePendingLocked(p)
		m.counters.canceled++
		m.qcLocked(p.queue).canceled++
		if p.finishedCh != nil {
			// A canceled preempted job will never resume; unpark its
			// WaitJob callers.
			close(p.finishedCh)
		}
		m.mu.Unlock()
		// cancel_held is distinct from a running-job cancel so replay
		// can reconstruct queue state: this name never held workers
		// (or had already released them to a preemption).
		note := "canceled while held"
		if p.holdReason != "" {
			note += ": " + p.holdReason
		}
		m.journal.append(Event{Kind: EventCancelHeld, Job: name, Note: note})
		return nil
	}
	j, ok := m.jobs[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("master: %w %q", ErrUnknownJob, name)
	}
	switch j.status {
	case StatusFinished:
		m.mu.Unlock()
		return fmt.Errorf("master: cancel %q: %w", name, ErrJobFinished)
	case StatusCanceled:
		m.mu.Unlock()
		return nil
	}
	// Measured values are captured while the job still counts as running
	// — livePlanLocked drops it the moment the status flips.
	iter, ucpu, unet := m.measuredLocked(name, j)
	m.journal.append(Event{Kind: EventCancel, Job: name,
		MeasuredIterSeconds: iter, MeasuredCPUUtil: ucpu, MeasuredNetUtil: unet})
	j.status = StatusCanceled
	m.invalidatePlanLocked()
	m.counters.canceled++
	m.qcLocked(j.queue).canceled++
	m.releaseBarriersLocked(j, worker.Stop)
	close(j.finishedCh)
	refs := m.placementRefsLocked(j)
	m.mu.Unlock()

	// Drop the job's shards and model partitions; failures surface as
	// counters and a journal event, not as a failed cancel.
	m.teardown(name, refs)
	m.wakeDrainer()
	return nil
}

// JobView is the status surface of one job for the control plane.
type JobView struct {
	Name      string
	State     string
	Iteration int
	Loss      float64
	Workers   []string
	// CompSeconds and NetSeconds are the job's current scheduler metrics
	// (profiled once Profiled is true, submission hints before).
	CompSeconds float64
	NetSeconds  float64
	Profiled    bool
	// CheckpointIter is the iteration of the latest background snapshot.
	CheckpointIter int
	// Queue and Priority are the job's fair-scheduler coordinates.
	Queue    string
	Priority int
	// HoldReason classifies a pending job's wait (fair.Hold*): the Eq. 1
	// slowdown bound, no feasible gang, quota exhaustion, or a
	// preemption awaiting resume. Empty for deployed jobs.
	HoldReason string
	// QueuePosition is the job's 1-based slot in the fair admission
	// order (0 for deployed jobs) — a held job is distinguishable from a
	// stuck one by reason and place in line.
	QueuePosition int
	// Resumable marks a preempted job holding a checkpoint; ResumeIter
	// is the iteration it will continue from on re-admission.
	Resumable  bool
	ResumeIter int
}

func (m *Master) jobViewLocked(name string, j *job) JobView {
	names := make([]string, len(j.workers))
	for i, wi := range j.workers {
		names[i] = m.workers[wi].name
	}
	info := m.jobInfoLocked(name, j)
	met, ok := m.profiles.Metrics(name)
	return JobView{
		Name:           name,
		State:          j.status.String(),
		Iteration:      j.iter,
		Loss:           j.loss,
		Workers:        names,
		CompSeconds:    info.Comp,
		NetSeconds:     info.Net,
		Profiled:       ok && met.Profiled(),
		CheckpointIter: j.checkpointIter,
		Queue:          j.queue,
		Priority:       j.priority,
	}
}

// pendingViewLocked builds the view of one held job; positions maps job
// name to its 1-based slot in the fair admission order.
func (m *Master) pendingViewLocked(p *pendingJob, positions map[string]int) JobView {
	return JobView{
		Name:          p.spec.Name,
		State:         StatusPending.String(),
		CompSeconds:   p.info.Comp,
		NetSeconds:    p.info.Net,
		Queue:         p.queue,
		Priority:      p.priority,
		HoldReason:    p.holdReason,
		QueuePosition: positions[p.spec.Name],
		Resumable:     p.resume != nil,
		ResumeIter:    p.resumeIter,
		Iteration:     max(p.resumeIter-1, 0),
	}
}

// queuePositionsLocked maps each held job to its 1-based slot in the
// fair admission order.
func (m *Master) queuePositionsLocked() map[string]int {
	ordered := m.fairsched.Order(m.heldLocked(), m.usageLocked(), len(m.workers))
	positions := make(map[string]int, len(ordered))
	for i, h := range ordered {
		positions[h.Job] = i + 1
	}
	return positions
}

// ListJobs reports every deployed and pending job, sorted by name.
func (m *Master) ListJobs() []JobView {
	m.mu.RLock()
	defer m.mu.RUnlock()
	views := make([]JobView, 0, len(m.jobs)+len(m.pending))
	for name, j := range m.jobs {
		views = append(views, m.jobViewLocked(name, j))
	}
	positions := m.queuePositionsLocked()
	for _, p := range m.pending {
		views = append(views, m.pendingViewLocked(p, positions))
	}
	sort.Slice(views, func(a, b int) bool { return views[a].Name < views[b].Name })
	return views
}

// Job reports one job's status; ok is false for unknown names.
func (m *Master) Job(name string) (JobView, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if j, ok := m.jobs[name]; ok {
		return m.jobViewLocked(name, j), true
	}
	if p := m.pendingIdx[name]; p != nil {
		return m.pendingViewLocked(p, m.queuePositionsLocked()), true
	}
	return JobView{}, false
}

// GroupView is one live co-location group: the worker set and the jobs
// sharing it. When the net-aware scheduler is on, the interleaving
// fields expose the solved comm phases (DESIGN.md §14).
type GroupView struct {
	Workers []string
	Jobs    []string
	// Interleaved marks a multi-job group whose comm phases were solved;
	// the fields below are only meaningful when it is true.
	Interleaved bool
	// Compatibility is the group's predicted link compatibility in [0,1]
	// (1 = comm windows fully interleave), calibrated against measured
	// COMP/COMM overlap once trace scrapes accumulate.
	Compatibility float64
	// PhasePeriodSeconds is the solved circle period (the group's Eq. 1
	// iteration time); PhaseOffsets maps job → comm-phase offset seconds.
	PhasePeriodSeconds float64
	PhaseOffsets       map[string]float64
}

// ClusterView is the control plane's cluster status: registered workers,
// the current placement derived from running jobs, and the held queue.
type ClusterView struct {
	Workers []string
	Groups  []GroupView
	Pending []string
}

// Cluster reports the cluster status surface.
func (m *Master) Cluster() ClusterView {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cv := ClusterView{Workers: make([]string, len(m.workers))}
	for i, w := range m.workers {
		cv.Workers[i] = w.name
	}
	plan, members := m.livePlanLocked()
	for gi, g := range plan.Groups {
		gv := GroupView{Workers: members[gi]}
		for _, j := range g.Jobs {
			gv.Jobs = append(gv.Jobs, j.ID)
		}
		if m.opts.NetModel && len(g.Jobs) > 1 {
			il := core.SolveInterleave(g.Jobs, g.Machines)
			gv.Interleaved = true
			gv.Compatibility = il.Compatibility
			gv.PhasePeriodSeconds = il.Period
			gv.PhaseOffsets = make(map[string]float64, len(g.Jobs))
			for ji, j := range g.Jobs {
				gv.PhaseOffsets[j.ID] = il.Offsets[ji]
			}
			// Prefer the measurement-calibrated compatibility once trace
			// scrapes have fed the EWMA (interleave.go).
			label := append([]string(nil), members[gi]...)
			sort.Strings(label)
			if gp := m.phases[strings.Join(label, ",")]; gp != nil && gp.calibrated > 0 {
				gv.Compatibility = gp.calibrated
			}
		}
		cv.Groups = append(cv.Groups, gv)
	}
	for _, p := range m.pending {
		cv.Pending = append(cv.Pending, p.spec.Name)
	}
	return cv
}

// QueueDepth reports the number of jobs held pending.
func (m *Master) QueueDepth() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pending)
}

// Shutdown drains the control plane for a clean exit: it stops admitting
// new work, snapshots every running job's model as a final checkpoint
// (best effort, within the timeout per job), and closes the master. It
// returns the names of the jobs checkpointed.
func (m *Master) Shutdown(timeout time.Duration) []string {
	if timeout <= 0 {
		timeout = time.Minute
	}
	type target struct {
		name string
		job  *job
		iter int
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	for _, p := range m.pending {
		if p.finishedCh != nil {
			// Dropped preempted jobs never resume; unpark WaitJob callers.
			close(p.finishedCh)
		}
	}
	m.pending = nil
	m.pendingIdx = make(map[string]*pendingJob)
	m.admitEpoch++
	var targets []target
	for name, j := range m.jobs {
		if j.status != StatusRunning || j.iter == 0 {
			continue
		}
		targets = append(targets, target{name: name, job: j, iter: j.iter})
	}
	m.mu.Unlock()
	sort.Slice(targets, func(a, b int) bool { return targets[a].name < targets[b].name })

	var saved []string
	for _, t := range targets {
		snap, err := m.snapshot(t.job, timeout)
		m.mu.Lock()
		if err != nil {
			m.counters.checkpointFailures++
			m.mu.Unlock()
			continue
		}
		if j, ok := m.jobs[t.name]; ok && j == t.job && t.iter >= j.checkpointIter {
			j.checkpoint = snap
			j.checkpointIter = t.iter
			saved = append(saved, t.name)
		}
		m.mu.Unlock()
	}
	m.Close()
	return saved
}
