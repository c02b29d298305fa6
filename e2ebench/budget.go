package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/obs"
	"harmony/internal/ps"
)

// budgetComponents are the span phases an iteration's wall time splits
// into; whatever they leave uncovered is the residual.
var budgetComponents = []obs.Phase{
	obs.PhaseComp, obs.PhasePull, obs.PhasePush,
	obs.PhaseWaitCPU, obs.PhaseWaitNet, obs.PhaseBarrier,
}

// budget sums per-iteration time, in nanoseconds, over a set of
// iterations.
type budget struct {
	n     int64
	wall  int64
	phase [obs.NumPhases]int64
}

func (b *budget) add(o budget) {
	b.n += o.n
	b.wall += o.wall
	for p := range b.phase {
		b.phase[p] += o.phase[p]
	}
}

func (b budget) residual() int64 {
	r := b.wall
	for _, p := range budgetComponents {
		r -= b.phase[p]
	}
	return r
}

// perIter is a sum over the budget's iterations as milliseconds per
// iteration.
func (b budget) perIter(ns int64) float64 {
	if b.n == 0 {
		return 0
	}
	return float64(ns) / float64(b.n) / 1e6
}

type timelineKey struct{ job, machine string }

// timeline is one job's span stream on one machine: the component sums
// of the iteration in progress and when the previous barrier ended.
type timeline struct {
	cur         map[int]*[obs.NumPhases]int64
	lastBarrier map[int]int64
}

type groupKind struct{ group, kind string }

// collector drains the master's span buffer while a traced phase runs
// and folds each worker iteration into a wall-time budget: an iteration
// runs from the end of the job's previous barrier on that machine to the
// end of its own barrier, and every span of the iteration is recorded
// before its barrier span, so the budget closes when the barrier span
// arrives.
type collector struct {
	c   *cluster
	reg *registry

	mu        sync.Mutex
	last      map[string]uint64
	lost      uint64
	spans     uint64
	lines     map[timelineKey]*timeline
	budgets   map[groupKind]*budget
	firstComp map[string]int64

	stopCh chan struct{}
	done   chan struct{}
}

func startCollector(c *cluster, reg *registry) *collector {
	col := &collector{
		c: c, reg: reg,
		last:      make(map[string]uint64),
		lines:     make(map[timelineKey]*timeline),
		budgets:   make(map[groupKind]*budget),
		firstComp: make(map[string]int64),
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	go func() {
		defer close(col.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-col.stopCh:
				return
			case <-t.C:
				col.collect()
			}
		}
	}()
	return col
}

// stop ends periodic collection after one last drain.
func (col *collector) stop() {
	close(col.stopCh)
	<-col.done
	col.collect()
}

func (col *collector) collect() {
	var spans []obs.TaggedSpan
	col.c.spans.around("master", "CollectSpans", func() error {
		spans = col.c.m.CollectSpans()
		return nil
	})
	col.mu.Lock()
	defer col.mu.Unlock()
	for _, s := range spans {
		last := col.last[s.Machine]
		if s.Seq <= last {
			continue
		}
		if s.Seq > last+1 {
			// A worker ring wrapped or the master's retention trimmed
			// spans before this collector saw them.
			col.lost += s.Seq - last - 1
		}
		col.last[s.Machine] = s.Seq
		col.spans++
		col.fold(s)
	}
}

func (col *collector) fold(s obs.TaggedSpan) {
	if s.Phase == obs.PhaseComp {
		if t, ok := col.firstComp[s.Job]; !ok || s.Start < t {
			col.firstComp[s.Job] = s.Start
		}
	}
	k := timelineKey{s.Job, s.Machine}
	tl := col.lines[k]
	if tl == nil {
		tl = &timeline{cur: make(map[int]*[obs.NumPhases]int64), lastBarrier: make(map[int]int64)}
		col.lines[k] = tl
	}
	comps := tl.cur[s.Iter]
	if comps == nil {
		comps = new([obs.NumPhases]int64)
		tl.cur[s.Iter] = comps
	}
	comps[s.Phase] += s.End - s.Start
	if s.Phase != obs.PhaseBarrier {
		return
	}
	delete(tl.cur, s.Iter)
	tl.lastBarrier[s.Iter] = s.End
	prev, ok := tl.lastBarrier[s.Iter-1]
	if !ok {
		// The job's first iteration on this machine has no start mark.
		return
	}
	delete(tl.lastBarrier, s.Iter-1)
	gk := groupKind{s.Group, col.reg.kind(s.Job)}
	b := col.budgets[gk]
	if b == nil {
		b = &budget{}
		col.budgets[gk] = b
	}
	one := budget{n: 1, wall: s.End - prev}
	one.phase = *comps
	b.add(one)
}

// total is the budget over every group and kind.
func (col *collector) total() budget {
	col.mu.Lock()
	defer col.mu.Unlock()
	var t budget
	for _, b := range col.budgets {
		t.add(*b)
	}
	return t
}

// firstCompStart is the start of the job's first COMP span, if traced.
func (col *collector) firstCompStart(job string) (time.Time, bool) {
	col.mu.Lock()
	defer col.mu.Unlock()
	ns, ok := col.firstComp[job]
	return time.Unix(0, ns), ok
}

// report prints every group × kind budget: the components plus the
// residual add up to the measured wall time by construction, and the
// printed difference shows it.
func (col *collector) report(w io.Writer) {
	col.mu.Lock()
	defer col.mu.Unlock()
	keys := make([]groupKind, 0, len(col.budgets))
	for k := range col.budgets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].kind < keys[j].kind
	})
	fmt.Fprintf(w, "per-iteration budget by group and job kind (ms per worker iteration; %d spans, %d lost):\n",
		col.spans, col.lost)
	fmt.Fprintf(w, "  %-14s %-6s %8s %9s %8s %8s %8s %8s %8s %8s %8s %10s\n",
		"group", "kind", "iters", "wall", "comp", "pull", "push", "wait_cpu", "wait_net", "barrier", "residual", "sum-wall")
	for _, k := range keys {
		b := col.budgets[k]
		sum := b.residual()
		for _, p := range budgetComponents {
			sum += b.phase[p]
		}
		fmt.Fprintf(w, "  %-14s %-6s %8d %9.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %10.2g\n",
			k.group, k.kind, b.n, b.perIter(b.wall),
			b.perIter(b.phase[obs.PhaseComp]), b.perIter(b.phase[obs.PhasePull]),
			b.perIter(b.phase[obs.PhasePush]), b.perIter(b.phase[obs.PhaseWaitCPU]),
			b.perIter(b.phase[obs.PhaseWaitNet]), b.perIter(b.phase[obs.PhaseBarrier]),
			b.perIter(b.residual()), b.perIter(sum-b.wall))
	}
}

// setBudgetMetrics reports the all-groups budget as the iter.* metrics.
func setBudgetMetrics(res *result, col *collector) {
	t := col.total()
	res.set("iter.wall_ms", "ms", t.perIter(t.wall))
	res.set("iter.comp_ms", "ms", t.perIter(t.phase[obs.PhaseComp]))
	res.set("iter.pull_ms", "ms", t.perIter(t.phase[obs.PhasePull]))
	res.set("iter.push_ms", "ms", t.perIter(t.phase[obs.PhasePush]))
	res.set("iter.wait_cpu_ms", "ms", t.perIter(t.phase[obs.PhaseWaitCPU]))
	res.set("iter.wait_net_ms", "ms", t.perIter(t.phase[obs.PhaseWaitNet]))
	res.set("iter.barrier_ms", "ms", t.perIter(t.phase[obs.PhaseBarrier]))
	res.set("iter.residual_ms", "ms", t.perIter(t.residual()))
	col.mu.Lock()
	lost := col.lost
	col.mu.Unlock()
	res.set("obs.spans_lost", "count", float64(lost))
	if t.n == 0 {
		res.notef("traced phase produced no complete worker iterations")
	}
}

// counterSnap is the cluster's data-plane, compute-path and PS counters
// at one moment; the difference of two covers a phase.
type counterSnap struct {
	comm     metrics.CommSnapshot
	comp     metrics.CompSnapshot
	lockWait float64
	ops      int64
}

func snapCounters(c *cluster) (counterSnap, error) {
	var s counterSnap
	c.spans.around("master", "CommStats", func() error { s.comm = c.m.CommStats(); return nil })
	c.spans.around("master", "CompStats", func() error { s.comp = c.m.CompStats(); return nil })
	var cs ps.ClusterStats
	err := c.spans.around("master", "PSStats", func() error {
		var err error
		cs, err = c.m.PSStats()
		return err
	})
	if err != nil {
		return s, fmt.Errorf("PSStats: %w", err)
	}
	for _, srv := range cs.Servers {
		for _, js := range srv.Jobs {
			for _, st := range js.Stripes {
				s.lockWait += st.LockWaitSeconds
				s.ops += st.Ops()
			}
		}
	}
	return s, nil
}

// setCounterMetrics reports the rpc, ps, worker-cache and memstore
// metrics over a phase of jobIters completed job-iterations.
func setCounterMetrics(res *result, before, after counterSnap, jobIters float64) {
	pulls := float64(after.comm.Pulls - before.comm.Pulls)
	pushes := float64(after.comm.Pushes - before.comm.Pushes)
	res.set("rpc.pull_bytes_per_iter", "bytes", ratio(float64(after.comm.PullBytes-before.comm.PullBytes), jobIters))
	res.set("rpc.push_bytes_per_iter", "bytes", ratio(float64(after.comm.PushBytes-before.comm.PushBytes), jobIters))
	res.set("rpc.pull_ms_per_op", "ms", ratio(1e3*(after.comm.PullSeconds-before.comm.PullSeconds), pulls))
	res.set("rpc.push_ms_per_op", "ms", ratio(1e3*(after.comm.PushSeconds-before.comm.PushSeconds), pushes))
	res.set("ps.lock_wait_ms_per_iter", "ms", ratio(1e3*(after.lockWait-before.lockWait), jobIters))
	res.set("ps.stripe_ops_per_iter", "count", ratio(float64(after.ops-before.ops), jobIters))
	hits := float64(after.comp.BlockHits - before.comp.BlockHits)
	misses := float64(after.comp.BlockMisses - before.comp.BlockMisses)
	res.set("worker.block_cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	res.set("memstore.reload_stall_ms_per_iter", "ms",
		ratio(1e3*(after.comp.ReloadStallSeconds-before.comp.ReloadStallSeconds), jobIters))
}

// setOverlap reports the measured COMP∩COMM overlap per group, averaged
// over the groups that had both.
func setOverlap(res *result, c *cluster) {
	var ov map[string]float64
	c.spans.around("master", "MeasuredOverlap", func() error { ov = c.m.MeasuredOverlap(); return nil })
	var xs []float64
	for _, g := range sortedKeys(ov) {
		res.notef("measured COMP/COMM overlap, group %s: %.4f", g, ov[g])
		xs = append(xs, ov[g])
	}
	res.set("iter.overlap_ratio", "ratio", mean(xs))
}
