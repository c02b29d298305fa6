package master

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
)

// TestAdmitZeroFullScoreRecomputations pins the fast path's core
// invariant (DESIGN.md §15): an admission decision — admitted or held,
// including its journal stamp — performs zero full-plan Options.Score
// evaluations. Everything reads the Scorer's cached aggregates.
func TestAdmitZeroFullScoreRecomputations(t *testing.T) {
	m := cluster(t, 2)

	before := core.FullScoreCalls()
	adm, err := m.Enqueue(spec("a", mlapp.MLR, 100000), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Admitted {
		t.Fatalf("idle-cluster admission = %+v, want admitted", adm)
	}
	if d := core.FullScoreCalls() - before; d != 0 {
		t.Fatalf("initial admission performed %d full Score calls, want 0", d)
	}

	// A held decision walks the arrival rule over the live plan — the hot
	// path at scale — and must also stay incremental.
	before = core.FullScoreCalls()
	adm, err = m.Enqueue(spec("b", mlapp.Lasso, 5), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admitted {
		t.Fatal("unprofiled job admitted into a busy cluster")
	}
	if d := core.FullScoreCalls() - before; d != 0 {
		t.Fatalf("held admission performed %d full Score calls, want 0", d)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
}

// TestWakeDrainerCoalesces pins the one-pending-wakeup latch: any burst
// of wakeups collapses into at most one queued drain pass, and none of
// the sends block.
func TestWakeDrainerCoalesces(t *testing.T) {
	m := &Master{drainCh: make(chan struct{}, 1)}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			m.wakeDrainer()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wakeDrainer blocked")
	}
	if n := len(m.drainCh); n != 1 {
		t.Fatalf("pending wakeups = %d, want exactly 1", n)
	}
}

// TestWorkerSetKeyOrder pins that the compact group key sorts in numeric
// index order — the property the old fmt.Sprint key lost past ten
// workers, where "10" sorted before "9".
func TestWorkerSetKeyOrder(t *testing.T) {
	sets := [][]int{{9}, {10}, {2, 3}, {1, 10}, {1, 9}, {0, 1, 2}, {256}, {129}}
	keys := make([]string, len(sets))
	for i, s := range sets {
		keys[i] = workerSetKey(s)
	}
	sort.Strings(keys)
	wantOrder := [][]int{{0, 1, 2}, {1, 9}, {1, 10}, {2, 3}, {9}, {10}, {129}, {256}}
	for i, want := range wantOrder {
		if keys[i] != workerSetKey(want) {
			t.Fatalf("sorted key %d is not for %v", i, want)
		}
	}
	if workerSetKey([]int{1, 2}) == workerSetKey([]int{1, 3}) {
		t.Fatal("distinct sets share a key")
	}
}

// TestAdmitCacheParity evaluates the same candidate stream against the
// same locked master state twice: once through the epoch-cached plan,
// Scorer and fair-policy inputs, and once after clearing planCache and
// the input caches so both are rebuilt from the jobs map. Between
// candidates a profile observation moves the seed job's metrics the way
// a barrier report does, so the cached path must also follow
// invalidation. Decisions — placement, initial flag, hold reason, and
// the journal prediction — must be bit-identical. Holding mu across both
// evaluations freezes the live profiles, so the comparison is exact, not
// timing-dependent.
func TestAdmitCacheParity(t *testing.T) {
	m := cluster(t, 2)
	if _, err := m.Enqueue(spec("seed", mlapp.MLR, 100000),
		Profile{CompSeconds: 4, NetSeconds: 1}); err != nil {
		t.Fatal(err)
	}
	// compare runs under the write lock and returns the first divergence,
	// so a failure releases mu before the cleanup's Close needs it.
	compare := func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i := 0; i < 8; i++ {
			s := spec(fmt.Sprintf("cand%d", i), mlapp.MLR, 10)
			info := Profile{CompSeconds: 0.5 * float64(i), NetSeconds: 0.25}.info(s.Name)
			// Warm every cache, then move the seed's profile as
			// handleBarrier does: observe, then invalidate.
			m.admitLocked(s, info)
			if m.planCache == nil || m.planCache.scorer == nil || m.inputEpoch != m.admitEpoch {
				return fmt.Errorf("cand%d: caches not warm after an evaluation", i)
			}
			_ = m.profiles.Observe("seed", 2, 3+float64(i), 0.5+0.25*float64(i))
			m.invalidatePlanLocked()
			gC, pC, iC, okC, rC := m.admitLocked(s, info)
			m.planMu.Lock()
			m.planCache = nil
			m.planMu.Unlock()
			m.usageCache, m.freeCache, m.heldCache = nil, nil, nil
			gF, pF, iF, okF, rF := m.admitLocked(s, info)
			if okC != okF || iC != iF || rC != rF {
				return fmt.Errorf("cand%d verdict diverged: cached (%v,%v,%q), fresh (%v,%v,%q)",
					i, okC, iC, rC, okF, iF, rF)
			}
			if fmt.Sprint(gC) != fmt.Sprint(gF) {
				return fmt.Errorf("cand%d placement diverged: cached %v, fresh %v", i, gC, gF)
			}
			if pC != pF {
				return fmt.Errorf("cand%d prediction diverged: cached %+v, fresh %+v", i, pC, pF)
			}
		}
		return nil
	}
	if err := compare(); err != nil {
		t.Fatal(err)
	}
	_ = m.Cancel("seed")
}

// TestAdmitSmokeConcurrentChurn hammers the admission write path while
// the read-mostly status surfaces poll concurrently; run under -race it
// checks the RWMutex split and the plan cache's locking discipline.
func TestAdmitSmokeConcurrentChurn(t *testing.T) {
	m := cluster(t, 2)
	const jobs = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = m.ListJobs()
				_ = m.Cluster()
				_ = m.Counters()
				_ = m.Queues()
				_ = m.Events()
				_ = m.QueueDepth()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("churn%d", i)
			_, err := m.Enqueue(spec(name, mlapp.MLR, 100000),
				Profile{CompSeconds: 2, NetSeconds: 1})
			if err != nil {
				t.Error(err)
				return
			}
			_ = m.Cancel(name)
		}(i)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	// Writers finish, then readers are told to stop.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("churn deadlocked")
	}
	for i := 0; i < jobs; i++ {
		_ = m.Cancel(fmt.Sprintf("churn%d", i))
	}
}
