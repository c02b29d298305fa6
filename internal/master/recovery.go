package master

import (
	"fmt"
	"strings"
	"time"

	"harmony/internal/ps"
	"harmony/internal/worker"
)

// CheckpointEvery is how often (in iterations) the master snapshots each
// job's model in the background — the paper's standard failure handling
// is "checkpointing (per epoch) and restart" (§VI).
const CheckpointEvery = 5

// maybeCheckpoint is called from the barrier handler when a group
// iteration completes; it snapshots asynchronously so the release is not
// delayed.
func (m *Master) maybeCheckpoint(j *job, iteration int) {
	if iteration == 0 || iteration%CheckpointEvery != 0 {
		return
	}
	name := j.spec.Name
	m.background.Add(1)
	go func() {
		defer m.background.Done()
		snap, err := m.snapshot(j, time.Minute)
		if err != nil {
			// Servers mid-teardown; the next checkpoint will catch up.
			// Count the loss so dropped snapshots stay visible (/metrics
			// exposes harmony_checkpoint_failures_total).
			m.checkpointFailed(j)
			return
		}
		m.mu.Lock()
		if jj, ok := m.jobs[name]; ok && jj == j && iteration > j.checkpointIter {
			j.checkpoint = snap
			j.checkpointIter = iteration
		}
		m.mu.Unlock()
	}()
}

// snapshot reads a job's full model off its parameter servers through
// the job's snapshot client (job.snap), building that client over the
// master's worker connections when the job's server set changed since
// the last build. Called without mu held.
func (m *Master) snapshot(j *job, timeout time.Duration) ([]float64, error) {
	m.mu.Lock()
	addrs := m.serverAddrsLocked(j)
	key := strings.Join(addrs, ",")
	client := j.snap
	if j.snapKey != key {
		client = nil
	}
	name, size := j.spec.Name, j.spec.Config.ModelSize()
	m.mu.Unlock()
	if client == nil {
		var err error
		if client, err = ps.NewClientOver(addrs, m.psConn(), timeout); err != nil {
			return nil, err
		}
		m.mu.Lock()
		j.snap, j.snapKey = client, key
		m.mu.Unlock()
	}
	return client.SnapshotWithin(name, size, timeout)
}

// checkpointFailed counts a background snapshot that was dropped. A
// snapshot that lost the race with its job's completion teardown is not
// a failure: the finished job needs no checkpoint.
func (m *Master) checkpointFailed(j *job) {
	m.mu.Lock()
	if j.status != StatusFinished {
		m.counters.checkpointFailures++
	}
	m.mu.Unlock()
}

// Checkpoint reports the job's most recent background snapshot and the
// iteration it covers (nil before the first CheckpointEvery iterations).
func (m *Master) Checkpoint(name string) ([]float64, int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	j, ok := m.jobs[name]
	if !ok {
		return nil, 0, fmt.Errorf("master: unknown job %q", name)
	}
	if j.checkpoint == nil {
		return nil, 0, nil
	}
	out := make([]float64, len(j.checkpoint))
	copy(out, j.checkpoint)
	return out, j.checkpointIter, nil
}

// RemoveWorker unregisters a failed worker. Jobs whose groups included it
// are marked paused (their barriers are released with Stop so surviving
// workers park the job); callers then RecoverJob each one. A machine
// failure "may have an impact on all co-located jobs" (§VI) — every job
// on the worker is affected.
func (m *Master) RemoveWorker(name string) ([]string, error) {
	m.mu.Lock()
	idx := -1
	for i, w := range m.workers {
		if w.name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: unknown worker %q", name)
	}
	dead := m.workers[idx]
	m.workers = append(m.workers[:idx], m.workers[idx+1:]...)

	var affected []string
	for jobName, j := range m.jobs {
		uses := false
		members := make([]int, 0, len(j.workers))
		for _, wi := range j.workers {
			switch {
			case wi == idx:
				uses = true
			case wi > idx:
				members = append(members, wi-1) // indexes shift left
			default:
				members = append(members, wi)
			}
		}
		j.workers = members
		if !uses || j.status == StatusFinished {
			continue
		}
		affected = append(affected, jobName)
		j.status = StatusPaused
		j.pauseRequested = false
		// Release any workers blocked at this job's barrier so they stop.
		m.releaseBarriersLocked(j, worker.Stop)
		j.pausedCh = make(chan struct{})
	}
	// Worker indexes shifted and affected jobs left the running set: the
	// derived plan is stale in both group membership and shape.
	m.invalidatePlanLocked()
	m.mu.Unlock()
	dead.client.Close()
	return affected, nil
}

// RecoverJob restarts an affected job on the given worker group (nil =
// every surviving worker), restoring the latest background checkpoint —
// progress since that checkpoint is recomputed, as with any
// checkpoint/restart scheme.
func (m *Master) RecoverJob(name string, group []string) error {
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("master: unknown job %q", name)
	}
	if j.status == StatusFinished {
		m.mu.Unlock()
		return nil
	}
	idxs, err := m.workerIndexesLocked(group)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	restore := j.checkpoint
	fromIter := 0
	if restore != nil {
		fromIter = j.checkpointIter + 1
	}
	oldRefs := m.placementRefsLocked(j)
	j.workers = idxs
	j.status = StatusRunning
	j.barriers = make(map[int]*barrierState)
	j.doneFrom = make(map[string]bool)
	j.psServers = nil // deploy rebuilds model partitions on the new group
	j.epoch++         // stragglers of the failed placement are now stale
	m.counters.recoveries++
	// The stamp below must see the restarted placement, not the cached
	// pre-failure plan.
	m.invalidatePlanLocked()
	ev := m.stampJobPlacementLocked(Event{Kind: EventRecover, Job: name,
		Group: m.workerNamesLocked(j),
		Note:  fmt.Sprintf("restart from checkpoint iteration %d", j.checkpointIter)})
	j.measIter = 0
	j.lastRelease = time.Time{}
	m.mu.Unlock()

	// Clean up the survivors that hosted the old placement.
	m.teardown(name, oldRefs)
	// Journal after the deploy attempt so a failed restart is auditable
	// in place: the PS client stamps the failing server's address into
	// its fan-out errors, and that identity surfaces here.
	err = m.deploy(j, restore, fromIter)
	if err != nil {
		ev.Note += "; deploy failed: " + err.Error()
	}
	m.journal.append(ev)
	return err
}
