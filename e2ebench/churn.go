package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"harmony/internal/ctl"
	"harmony/internal/fair"
	"harmony/internal/master"
	"harmony/internal/simtime"
	"harmony/internal/trace"
)

// churnRate is the open loop's mean arrival rate in jobs per second:
// below saturation, so the generator keeps up and the held queue stays
// bounded, yet high enough that the slowdown bound holds some arrivals.
const churnRate = 18.0

// churnShapes are the short jobs of arrival-churn. Each is profiled
// standalone during set-up and submitted with that profile as its hints,
// so the §IV-B4 arrival rule and its slowdown bound act on every
// arrival; unhinted arrivals would all pack into one group.
var churnShapes = map[string]ctl.SubmitRequest{
	"mlr": {Algorithm: "mlr", Features: 32, Classes: 4, Rows: 256,
		LearningRate: 0.2, Iterations: 30, MinWorkers: 2, MaxWorkers: 2},
	"lasso": {Algorithm: "lasso", Features: 32, Rows: 256,
		Lambda: 0.02, Iterations: 30, MaxWorkers: 2},
	"nmf": {Algorithm: "nmf", Features: 64, Classes: 4, Rows: 128,
		LearningRate: 0.05, Iterations: 20, MaxWorkers: 1},
}

// churnCanaries are single-worker canaries that go through admission
// like every other arrival.
var churnCanaries = []ctl.SubmitRequest{
	{Algorithm: "mlr", Features: 24, Classes: 3, Rows: 192, LearningRate: 0.2,
		Iterations: 80, Seed: 90011, MaxWorkers: 1},
	{Algorithm: "lasso", Features: 24, Rows: 160, Lambda: 0.02,
		Iterations: 80, Seed: 90012, MaxWorkers: 1},
}

// maxLateMs is how far behind an arrival's due time the generator may
// send it; later than that, the load was not the one asked for.
const maxLateMs = 500

// canaryEvery makes every n-th arrival a canary.
const canaryEvery = 25

// jobTimes is one churn job's timeline.
type jobTimes struct {
	due, admitted, done time.Time
	held                bool
	holdReason          string
	holdAt              time.Time
	predictedIter       float64
	measuredIter        float64
}

// journalWatch follows the master's decision journal, which is a bounded
// ring, often enough that no event is evicted unseen.
type journalWatch struct {
	c      *cluster
	mu     sync.Mutex
	since  uint64
	lost   uint64
	events map[string][]master.Event
	stopCh chan struct{}
	done   chan struct{}
}

func startJournalWatch(c *cluster) *journalWatch {
	w := &journalWatch{c: c, events: make(map[string][]master.Event),
		stopCh: make(chan struct{}), done: make(chan struct{})}
	// Skip set-up's events.
	if evs := c.m.EventsSince(0, ""); len(evs) > 0 {
		w.since = evs[len(evs)-1].Seq
	}
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case <-t.C:
				w.poll()
			}
		}
	}()
	return w
}

func (w *journalWatch) poll() {
	var evs []master.Event
	w.c.spans.around("master", "EventsSince", func() error {
		evs = w.c.m.EventsSince(w.since, "")
		return nil
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range evs {
		if e.Seq > w.since+1 {
			w.lost += e.Seq - w.since - 1
		}
		w.since = e.Seq
		w.events[e.Job] = append(w.events[e.Job], e)
	}
}

func (w *journalWatch) stop() {
	close(w.stopCh)
	<-w.done
	w.poll()
}

// apply fills a job's admission and model stamps from its events.
func (w *journalWatch) apply(name string, t *jobTimes) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range w.events[name] {
		switch e.Kind {
		case master.EventHold:
			t.holdAt = e.Time
			t.holdReason = strings.TrimPrefix(e.Note, "held: ")
		case master.EventQueueDrain:
			t.admitted = e.Time
			t.predictedIter = e.PredictedIterSeconds
		case master.EventAdmitInitial, master.EventAdmitArrival:
			t.predictedIter = e.PredictedIterSeconds
		case master.EventComplete:
			t.measuredIter = e.MeasuredIterSeconds
		}
	}
}

// runChurn drives the open loop: Poisson arrivals (internal/trace,
// seeded by --seed) POSTed at their due times for --seconds, one status
// poller on the second connection, and every job waited for and checked.
// Traced runs record spans during the same loop.
func runChurn(cfg runConfig, res *result) error {
	env, err := setupLive(cfg, res, churnCanaries, churnShapes)
	if err != nil {
		return err
	}
	defer env.c.close()
	c := env.c
	var col *collector
	var before counterSnap
	if cfg.trace {
		c.enableTracing()
		if before, err = snapCounters(c); err != nil {
			return err
		}
		col = startCollector(c, env.reg)
	}
	counters0 := c.m.Counters()
	journal := startJournalWatch(c)

	// Arrivals are the seeded Poisson process of internal/trace, scaled
	// so the last one falls where its expectation does: given its count,
	// a Poisson process is uniform over the window, so this keeps the
	// process and fixes the offered load across seeds.
	n := int(math.Ceil(churnRate * cfg.seconds))
	arrivals := trace.Poisson(n, simtime.FromSeconds(1/churnRate), cfg.seed)
	scale := cfg.seconds * float64(n-1) / float64(n) / arrivals[n-1].Seconds()
	// Every shape gets an equal share of the arrivals, in a seeded order,
	// so the mix does not move the latency quantiles from seed to seed.
	names := sortedKeys(churnShapes)
	shapes := make([]string, n)
	for i := range shapes {
		shapes[i] = names[i%len(names)]
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(n, func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })

	times := make([]*jobTimes, n)
	reqs := make([]ctl.SubmitRequest, n)
	var wg sync.WaitGroup
	var statusRTT, submitRTT, late []float64
	var maxPending int

	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-pollStop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			res.ledger.attempt()
			rtt, err := c.clusterStatus()
			if err != nil {
				res.ledger.fail(err)
				return
			}
			statusRTT = append(statusRTT, ms(rtt))
			res.ledger.note(OutcomeOK, "")
		}
	}()

	start := time.Now().Add(20 * time.Millisecond)
	for i, at := range arrivals {
		req := churnShapes[shapes[i]]
		canary := i%canaryEvery == canaryEvery-1
		if canary {
			req = churnCanaries[(i/canaryEvery)%len(churnCanaries)]
		} else {
			h := env.hints[req.Algorithm]
			req.Profile = &h
			req.Seed = cfg.seed*1_000_003 + int64(i)
		}
		req.Name = fmt.Sprintf("c-%d", i)
		reqs[i] = req
		env.reg.add(jobRec{req: req, canary: canary})

		due := start.Add(time.Duration(at.Seconds() * scale * float64(time.Second)))
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		t := &jobTimes{due: due}
		times[i] = t
		res.ledger.attempt()
		sr, err := c.submit(req)
		if err != nil {
			res.ledger.fail(err)
			times[i] = nil
			continue
		}
		submitRTT = append(submitRTT, ms(sr.rtt))
		switch sr.state {
		case "running":
			t.admitted = sr.sent.Add(sr.rtt)
		case "pending":
			t.held = true
		default:
			// 409: a duplicate name is an expected answer, but this loop
			// never reuses one, so the job does not run.
			res.ledger.note(OutcomeDuplicate, req.Name)
			times[i] = nil
			continue
		}
		wg.Add(1)
		go func(name string, t *jobTimes) {
			defer wg.Done()
			done, err := c.wait(name, waitTimeout)
			if err != nil {
				res.ledger.fail(err)
				return
			}
			t.done = done
		}(req.Name, t)
		if q := c.m.QueueDepth(); q > maxPending {
			maxPending = q
		}
	}
	genEnd := time.Now()
	close(pollStop)
	<-pollDone
	wg.Wait()
	journal.stop()
	counters1 := c.m.Counters()

	// Outcomes and checks.
	var jcts, admits, queueWaits, predErr, deploys []float64
	shapeJCT := make(map[string][]float64)
	var iters float64
	var first, last time.Time
	var finished []string
	over := make(map[string][]float64)
	for i, t := range times {
		if t == nil || t.done.IsZero() {
			continue
		}
		journal.apply(reqs[i].Name, t)
		j, _ := env.reg.get(reqs[i].Name)
		r, err := checkFinished(c, j, env.ref)
		if err != nil {
			res.ledger.fail(err)
			continue
		}
		if !j.canary {
			over[j.req.Algorithm] = append(over[j.req.Algorithm], r)
		}
		switch {
		case t.held && t.holdReason == fair.HoldQuota:
			res.ledger.note(OutcomeQuotaGated, reqs[i].Name)
		case t.held:
			res.ledger.note(OutcomeHeld, reqs[i].Name)
		default:
			res.ledger.note(OutcomeOK, "")
		}
		finished = append(finished, reqs[i].Name)
		iters += float64(reqs[i].Iterations)
		if first.IsZero() || t.due.Before(first) {
			first = t.due
		}
		if t.done.After(last) {
			last = t.done
		}
		if t.admitted.IsZero() {
			res.ledger.fail(checkFailed("held job %s finished without a journaled admission", reqs[i].Name))
			continue
		}
		if !j.canary {
			jcts = append(jcts, ms(t.done.Sub(t.due)))
			shapeJCT[j.req.Algorithm] = append(shapeJCT[j.req.Algorithm], ms(t.done.Sub(t.due)))
		}
		admits = append(admits, ms(t.admitted.Sub(t.due)))
		if t.held && !t.holdAt.IsZero() {
			queueWaits = append(queueWaits, ms(t.admitted.Sub(t.holdAt)))
		}
		if t.predictedIter > 0 && t.measuredIter > 0 {
			predErr = append(predErr, t.predictedIter/t.measuredIter)
		}
		if col != nil {
			if fc, ok := col.firstCompStart(reqs[i].Name); ok {
				deploys = append(deploys, ms(fc.Sub(admitEventTime(journal, reqs[i].Name, t))))
			}
		}
	}
	reportLossRatios(res, over)
	if worst := pct(late, 1); worst > maxLateMs {
		res.ledger.fail(fmt.Errorf("the generator ran %.0f ms behind an arrival (limit %d ms): the run is void", worst, maxLateMs))
	}
	if journal.lost > 0 {
		res.ledger.fail(fmt.Errorf("journal ring evicted %d events before the watcher read them", journal.lost))
	}
	if len(finished) < 200 {
		res.notef("only %d jobs finished; jct p95 rests on fewer than 10 jobs beyond it", len(finished))
	}

	rate := ratio(iters, last.Sub(first).Seconds())
	held := float64(counters1.HeldPending - counters0.HeldPending)
	res.set("throughput_per_s", "1/s", rate)
	for _, shape := range sortedKeys(shapeJCT) {
		res.sample("jct_ms."+shape, "ms", shapeJCT[shape])
	}
	res.set("latency_p50_ms", "ms", meanOfMedians(shapeJCT))
	res.set("job_iters_per_s", "1/s", rate)
	res.set("jct_p50_s", "s", pct(jcts, 0.5)/1e3)
	res.set("jct_p95_s", "s", pct(jcts, 0.95)/1e3)
	res.set("admit_p50_ms", "ms", pct(admits, 0.5))
	res.set("admit_p95_ms", "ms", pct(admits, 0.95))
	res.set("status_p95_ms", "ms", pct(statusRTT, 0.95))
	res.set("held_jobs", "count", held)
	res.set("max_queue_depth", "count", float64(maxPending))
	res.set("ctl.submit_ms_p50", "ms", pct(submitRTT, 0.5))
	res.set("ctl.submit_ms_p95", "ms", pct(submitRTT, 0.95))
	res.set("ctl.status_ms_p95", "ms", pct(statusRTT, 0.95))
	res.set("master.admit_ms_p50", "ms", pct(admits, 0.5))
	res.set("master.admit_ms_p95", "ms", pct(admits, 0.95))
	res.set("master.held_ratio", "ratio", ratio(held, float64(n)))
	res.set("master.queue_wait_ms_p50", "ms", pct(queueWaits, 0.5))
	// The model's error as a factor (1 is exact): the larger of
	// predicted/measured and its inverse, median over jobs.
	factors := make([]float64, len(predErr))
	for i, r := range predErr {
		factors[i] = math.Max(r, 1/r)
	}
	res.set("core.predict_error_ratio", "ratio", pct(factors, 0.5))
	res.set("gen.late_ms_max", "ms", pct(late, 1))
	res.sample("jct_ms", "ms", jcts)
	res.sample("admit_ms", "ms", admits)
	res.sample("status_ms", "ms", statusRTT)
	res.sample("submit_ms", "ms", submitRTT)
	res.sample("queue_wait_ms", "ms", queueWaits)
	res.sample("predicted_over_measured_iter", "ratio", predErr)
	res.notef("%d arrivals over %.2f s, %d finished, %d held on arrival, queue depth peaked at %d",
		n, genEnd.Sub(start).Seconds(), len(finished), int(held), maxPending)

	if col != nil {
		col.stop()
		after, err := snapCounters(c)
		if err != nil {
			return err
		}
		setBudgetMetrics(res, col)
		res.block(col.report)
		setCounterMetrics(res, before, after, iters)
		setOverlap(res, c)
		res.set("master.deploy_ms_p50", "ms", pct(deploys, 0.5))
		res.sample("deploy_ms", "ms", deploys)
	}
	env.retained(res, len(finished))
	return nil
}

// admitEventTime is when the journal recorded the job's admission.
func admitEventTime(w *journalWatch, name string, t *jobTimes) time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range w.events[name] {
		switch e.Kind {
		case master.EventAdmitInitial, master.EventAdmitArrival, master.EventQueueDrain:
			return e.Time
		}
	}
	return t.admitted
}
