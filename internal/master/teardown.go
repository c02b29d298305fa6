package master

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// TeardownTimeout bounds one placement teardown end to end. Each of the
// two drop phases gets half of it, so a hung worker delays a cancel,
// preemption, migration, recovery or completion by at most this much.
const TeardownTimeout = 5 * time.Second

// placementRefsLocked lists the workers hosting a job's placement: its
// worker group plus any parameter server an elastic resize moved the
// job's partitions onto. Caller holds mu.
func (m *Master) placementRefsLocked(j *job) []workerRef {
	refs := make([]workerRef, 0, len(j.workers))
	member := make(map[string]bool, len(j.workers))
	for _, wi := range j.workers {
		refs = append(refs, m.workers[wi])
		member[m.workers[wi].addr] = true
	}
	for _, addr := range j.psServers {
		if member[addr] {
			continue
		}
		for _, w := range m.workers {
			if w.addr == addr {
				refs = append(refs, w)
				member[addr] = true
				break
			}
		}
	}
	return refs
}

// teardown drops a job's placement from refs in two phases: first every
// worker stops and unloads the job (worker.MethodDropJob), then every
// parameter server drops the job's partition (ps.MethodDrop), so no
// surviving worker still pulls from a partition being dropped. The calls
// of a phase run concurrently. It returns one error per failed call,
// counts each in Counters.TeardownFailures and journals them together as
// one teardown_failed event. Called without mu held.
func (m *Master) teardown(job string, refs []workerRef) []error {
	phase := TeardownTimeout / 2
	errs := dropAll(refs, func(r workerRef) error {
		_, err := rpc.Invoke[worker.DropJobArgs, worker.Ack](r.client,
			worker.MethodDropJob, worker.DropJobArgs{Job: job}, phase)
		return err
	}, worker.MethodDropJob)
	errs = append(errs, dropAll(refs, func(r workerRef) error {
		_, err := rpc.Invoke[ps.DropArgs, ps.Ack](r.client,
			ps.MethodDrop, ps.DropArgs{Job: job}, phase)
		return err
	}, ps.MethodDrop)...)
	if len(errs) == 0 {
		return nil
	}
	m.mu.Lock()
	m.counters.teardownFailures += int64(len(errs))
	m.mu.Unlock()
	notes := make([]string, len(errs))
	for i, err := range errs {
		notes[i] = err.Error()
	}
	m.journal.append(Event{Kind: EventTeardownFailed, Job: job,
		Note: strings.Join(notes, "; ")})
	return errs
}

// dropAll runs call on every ref concurrently and returns the failures
// in ref order, each naming the worker and the method.
func dropAll(refs []workerRef, call func(workerRef) error, method string) []error {
	failed := make([]error, len(refs))
	var wg sync.WaitGroup
	for i, r := range refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(r); err != nil {
				failed[i] = fmt.Errorf("%s %s: %w", r.name, method, err)
			}
		}()
	}
	wg.Wait()
	var errs []error
	for _, err := range failed {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
