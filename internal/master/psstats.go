package master

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// This file is the master half of the elastic parameter service
// (DESIGN.md §12): scraping per-stripe load off every worker's
// co-located PS, driving the hot-stripe rebalancer on a cadence, and
// growing/shrinking a job's server set with live stripe migration.

// PSStats scrapes per-stripe parameter-server statistics from every
// registered worker (each worker co-hosts a PS on its RPC address).
// Scraping is best-effort per worker — one mid-restart worker must not
// blank the cluster view — but an empty result with failures reports
// the first error.
func (m *Master) PSStats() (ps.ClusterStats, error) {
	m.mu.Lock()
	refs := append([]workerRef(nil), m.workers...)
	m.mu.Unlock()
	if len(refs) == 0 {
		return ps.ClusterStats{}, errors.New("master: no workers")
	}
	var cs ps.ClusterStats
	var firstErr error
	for _, r := range refs {
		reply, err := rpc.Invoke[ps.StatsArgs, ps.StatsReply](r.client,
			ps.MethodStats, ps.StatsArgs{}, time.Minute)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("master: ps stats from %s (%s): %w", r.name, r.addr, err)
			}
			continue
		}
		cs.Servers = append(cs.Servers, ps.ServerStats{
			Name: r.name, Addr: r.addr, StatsReply: reply,
		})
	}
	if len(cs.Servers) == 0 && firstErr != nil {
		return cs, firstErr
	}
	return cs, nil
}

// psConn returns a ConnFunc resolving PS addresses to the
// master's existing worker connections (the PS shares the worker's RPC
// server, so no extra dials are needed).
func (m *Master) psConn() ps.ConnFunc {
	return func(addr string) (*rpc.Client, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, w := range m.workers {
			if w.addr == addr {
				return w.client, nil
			}
		}
		return nil, fmt.Errorf("master: no worker at %s", addr)
	}
}

// RebalancePS runs one observe-plan-execute round of the hot-stripe
// rebalancer and returns the planned moves and how many executed. Each
// running job's stripes are only (re)placed within that job's own
// server set: its PS clients refresh routes against those servers
// alone, so a stripe parked anywhere else would be unreachable. Safe to
// call concurrently with the background loop; whole rounds serialize
// with each other and with ResizeJobServers on psOpMu.
func (m *Master) RebalancePS(opts ps.PlanOptions) ([]ps.Move, int, error) {
	cs, err := m.PSStats()
	if err != nil {
		return nil, 0, err
	}
	m.psOpMu.Lock()
	defer m.psOpMu.Unlock()

	m.mu.Lock()
	domains := make(map[string][]string, len(m.jobs))
	for name, j := range m.jobs {
		if j.status == StatusRunning {
			domains[name] = m.serverAddrsLocked(j)
		}
	}
	m.mu.Unlock()

	m.psMu.Lock()
	if m.balancer == nil {
		m.balancer = ps.NewBalancer(0)
	}
	m.balancer.Observe(cs)
	moves := m.balancer.PlanJobs(domains, opts)
	m.psMu.Unlock()
	if len(moves) == 0 {
		return nil, 0, nil
	}
	executed, execErr := ps.ExecuteMoves(m.psConn(), moves, time.Minute)
	done := len(executed)
	m.psMu.Lock()
	m.balancer.CommitMoves(executed)
	m.psMu.Unlock()
	ev := Event{Kind: EventPSRebalance, Note: describeMoves(moves, done)}
	if job, same := singleJob(moves); same {
		ev.Job = job
		ev = m.stampJobPlacement(ev)
	}
	if execErr != nil {
		ev.Note += "; error: " + execErr.Error()
	}
	m.journal.append(ev)
	return moves, done, execErr
}

// singleJob reports the common job of the moves, if they share one.
func singleJob(moves []ps.Move) (string, bool) {
	job := moves[0].Job
	for _, mv := range moves[1:] {
		if mv.Job != job {
			return "", false
		}
	}
	return job, true
}

func describeMoves(moves []ps.Move, done int) string {
	parts := make([]string, len(moves))
	for i, mv := range moves {
		parts[i] = mv.String()
	}
	return fmt.Sprintf("%d/%d executed: %s", done, len(moves), strings.Join(parts, ", "))
}

// StartPSRebalancer launches the background rebalancing loop at the
// given cadence (default 2s); Close stops it. Starting twice is a
// no-op.
func (m *Master) StartPSRebalancer(interval time.Duration, opts ps.PlanOptions) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	m.mu.Lock()
	if m.closed || m.psStop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	m.psStop = stop
	m.mu.Unlock()
	m.psWG.Add(1)
	go func() {
		defer m.psWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			// Best-effort: a failed round (worker mid-restart) retries at
			// the next tick.
			_, _, _ = m.RebalancePS(opts)
		}
	}()
}

// ResizeJobServers grows or shrinks a running job's parameter-server
// set to the given worker group without stopping the job: servers
// leaving the set are drained (every stripe live-migrated to a
// survivor), then each of the job's workers re-points its PS client at
// the new set. Grown-in servers start empty and fill as the rebalancer
// moves hot stripes onto them.
func (m *Master) ResizeJobServers(name string, group []string) error {
	// Serialize with RebalancePS (psOpMu): a rebalance round planned
	// against the pre-resize server set must not re-place stripes onto a
	// server this resize is draining out of the job.
	m.psOpMu.Lock()
	defer m.psOpMu.Unlock()
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("master: unknown job %q", name)
	}
	if j.status != StatusRunning {
		m.mu.Unlock()
		return fmt.Errorf("master: job %q not running", name)
	}
	idxs, err := m.workerIndexesLocked(group)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	oldSet := m.serverAddrsLocked(j)
	newSet := make([]string, len(idxs))
	for i, wi := range idxs {
		newSet[i] = m.workers[wi].addr
	}
	jobRefs := make([]workerRef, len(j.workers))
	for i, wi := range j.workers {
		jobRefs[i] = m.workers[wi]
	}
	m.mu.Unlock()

	keep := make(map[string]bool, len(newSet))
	for _, a := range newSet {
		keep[a] = true
	}
	var removed []string
	for _, a := range oldSet {
		if !keep[a] {
			removed = append(removed, a)
		}
	}
	if len(removed) == len(oldSet) && len(newSet) == 0 {
		return fmt.Errorf("master: resize of %q would leave no servers", name)
	}
	conn := m.psConn()
	moved := 0
	for _, src := range removed {
		n, err := ps.DrainServer(conn, name, src, newSet, time.Minute)
		moved += n
		if err != nil {
			return fmt.Errorf("master: resize %q: %w", name, err)
		}
	}

	m.mu.Lock()
	if jj, live := m.jobs[name]; live && jj == j {
		j.psServers = append([]string(nil), newSet...)
	}
	m.mu.Unlock()

	// Re-point every worker's PS client; stripes already drained, so a
	// worker that raced ahead just follows moved-stripe redirects.
	var firstErr error
	for _, r := range jobRefs {
		if _, err := rpc.Invoke[worker.UpdatePSArgs, worker.Ack](r.client,
			worker.MethodUpdatePS, worker.UpdatePSArgs{Job: name, Servers: newSet},
			time.Minute); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("master: update ps on %s: %w", r.name, err)
		}
	}
	sort.Strings(group)
	ev := m.stampJobPlacement(Event{Kind: EventPSResize, Job: name, Group: group,
		Note: fmt.Sprintf("servers %d -> %d, %d stripes drained", len(oldSet), len(newSet), moved)})
	if firstErr != nil {
		ev.Note += "; error: " + firstErr.Error()
	}
	m.journal.append(ev)
	return firstErr
}
