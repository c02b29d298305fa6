package ctl

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"harmony/internal/master"
	"harmony/internal/metrics"
	"harmony/internal/obs"
	"harmony/internal/ps"
	"harmony/internal/replay"
)

// fakeBackend scripts the master's control-plane surface for handler
// tests; the live path is covered by integration_test.go.
type fakeBackend struct {
	enqueue    func(master.JobSpec, master.Profile) (master.Admission, error)
	submit     func(master.JobSpec, []string) error
	jobs       []master.JobView
	cancelErr  error
	cluster    master.ClusterView
	counters   master.Counters
	comm       metrics.CommSnapshot
	comp       metrics.CompSnapshot
	statsErr   error
	queues     []master.QueueView
	events     []master.Event
	snap       *master.Snapshot
	snapErr    error
	psStats    ps.ClusterStats
	psErr      error
	traced     bool
	spans      []obs.TaggedSpan
	phaseHist  [obs.NumPhases]metrics.HistSnapshot
	overlap    map[string]float64
	lastSpec   master.JobSpec
	lastProf   master.Profile
	lastGroup  []string
	lastCancel string
}

func (f *fakeBackend) Enqueue(spec master.JobSpec, prof master.Profile) (master.Admission, error) {
	f.lastSpec, f.lastProf = spec, prof
	if f.enqueue != nil {
		return f.enqueue(spec, prof)
	}
	return master.Admission{Admitted: true, Workers: []string{"w0"}}, nil
}

func (f *fakeBackend) Submit(spec master.JobSpec, group []string) error {
	f.lastSpec, f.lastGroup = spec, group
	if f.submit != nil {
		return f.submit(spec, group)
	}
	return nil
}

func (f *fakeBackend) ListJobs() []master.JobView { return f.jobs }

func (f *fakeBackend) Job(name string) (master.JobView, bool) {
	for _, j := range f.jobs {
		if j.Name == name {
			return j, true
		}
	}
	return master.JobView{}, false
}

func (f *fakeBackend) Cancel(name string) error {
	f.lastCancel = name
	return f.cancelErr
}

func (f *fakeBackend) Cluster() master.ClusterView { return f.cluster }
func (f *fakeBackend) Counters() master.Counters   { return f.counters }
func (f *fakeBackend) Queues() []master.QueueView  { return f.queues }

func (f *fakeBackend) WorkerStats() (float64, float64, error) {
	return 0.75, 0.5, f.statsErr
}

func (f *fakeBackend) CommStats() metrics.CommSnapshot {
	return f.comm
}

func (f *fakeBackend) CompStats() metrics.CompSnapshot {
	return f.comp
}

func (f *fakeBackend) EventsSince(since uint64, kind string) []master.Event {
	var out []master.Event
	for _, e := range f.events {
		if e.Seq > since && (kind == "" || e.Kind == kind) {
			out = append(out, e)
		}
	}
	return out
}

func (f *fakeBackend) Snapshot() (master.Snapshot, error) {
	if f.snapErr != nil {
		return master.Snapshot{}, f.snapErr
	}
	if f.snap != nil {
		return *f.snap, nil
	}
	ws := f.cluster.Workers
	return master.Snapshot{
		SchemaVersion: master.SnapshotSchemaVersion,
		Workers:       ws,
		Journal:       f.events,
	}, nil
}

func (f *fakeBackend) PSStats() (ps.ClusterStats, error) { return f.psStats, f.psErr }

func (f *fakeBackend) TracingEnabled() bool { return f.traced }

func (f *fakeBackend) CollectSpans() []obs.TaggedSpan { return f.spans }

func (f *fakeBackend) PhaseStats() ([obs.NumPhases]metrics.HistSnapshot, bool) {
	return f.phaseHist, f.traced
}

func (f *fakeBackend) MeasuredOverlap() map[string]float64 { return f.overlap }

func doReq(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeErr(t *testing.T, w *httptest.ResponseRecorder) ErrorInfo {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body not JSON: %v (%s)", err, w.Body.String())
	}
	return e.Error
}

func TestSubmitValidation(t *testing.T) {
	s := New(&fakeBackend{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{`},
		{"unknown field", `{"name":"a","algorithm":"mlr","iterations":5,"bogus":1}`},
		{"missing name", `{"algorithm":"mlr","iterations":5}`},
		{"bad name", `{"name":"a job!","algorithm":"mlr","iterations":5}`},
		{"bad algorithm", `{"name":"a","algorithm":"svm","iterations":5}`},
		{"zero iterations", `{"name":"a","algorithm":"mlr"}`},
		{"alpha out of range", `{"name":"a","algorithm":"mlr","iterations":5,"alpha":1.5}`},
		{"negative rows", `{"name":"a","algorithm":"mlr","iterations":5,"rows":-1}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := doReq(t, s, http.MethodPost, "/v1/jobs", c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", w.Code, w.Body.String())
			}
			if e := decodeErr(t, w); e.Code != CodeInvalidRequest {
				t.Errorf("error code = %q, want %q", e.Code, CodeInvalidRequest)
			}
		})
	}
}

func TestSubmitAdmitted(t *testing.T) {
	fb := &fakeBackend{}
	s := New(fb)
	w := doReq(t, s, http.MethodPost, "/v1/jobs",
		`{"name":"a","algorithm":"lasso","iterations":5,"seed":9,"profile":{"comp_seconds":2,"net_seconds":1,"work_gb":3}}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("status = %d, want 201 (%s)", w.Code, w.Body.String())
	}
	var resp SubmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != "running" || len(resp.Workers) != 1 {
		t.Errorf("response = %+v", resp)
	}
	if fb.lastSpec.Name != "a" || fb.lastSpec.Seed != 9 || fb.lastSpec.Iterations != 5 {
		t.Errorf("spec passed through = %+v", fb.lastSpec)
	}
	if fb.lastProf.CompSeconds != 2 || fb.lastProf.NetSeconds != 1 || fb.lastProf.WorkGB != 3 {
		t.Errorf("profile passed through = %+v", fb.lastProf)
	}
}

func TestSubmitHeldPending(t *testing.T) {
	fb := &fakeBackend{
		enqueue: func(master.JobSpec, master.Profile) (master.Admission, error) {
			return master.Admission{}, nil
		},
	}
	w := doReq(t, New(fb), http.MethodPost, "/v1/jobs",
		`{"name":"a","algorithm":"mlr","iterations":5}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (%s)", w.Code, w.Body.String())
	}
	var resp SubmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != "pending" {
		t.Errorf("state = %q, want pending", resp.State)
	}
}

func TestSubmitExplicitWorkersBypassesQueue(t *testing.T) {
	fb := &fakeBackend{}
	w := doReq(t, New(fb), http.MethodPost, "/v1/jobs",
		`{"name":"a","algorithm":"nmf","iterations":5,"workers":["w1","w2"]}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("status = %d, want 201 (%s)", w.Code, w.Body.String())
	}
	if len(fb.lastGroup) != 2 || fb.lastGroup[0] != "w1" {
		t.Errorf("explicit group not passed to Submit: %v", fb.lastGroup)
	}
}

func TestBackendErrorMapping(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{master.ErrDuplicateJob, http.StatusConflict, CodeConflict},
		{master.ErrUnknownWorker, http.StatusBadRequest, CodeInvalidRequest},
		{master.ErrDraining, http.StatusServiceUnavailable, CodeUnavailable},
		{errors.New("boom"), http.StatusInternalServerError, CodeInternal},
	}
	for _, c := range cases {
		fb := &fakeBackend{
			enqueue: func(master.JobSpec, master.Profile) (master.Admission, error) {
				return master.Admission{}, c.err
			},
		}
		w := doReq(t, New(fb), http.MethodPost, "/v1/jobs",
			`{"name":"a","algorithm":"mlr","iterations":5}`)
		if w.Code != c.wantStatus {
			t.Errorf("%v: status = %d, want %d", c.err, w.Code, c.wantStatus)
		}
		if e := decodeErr(t, w); e.Code != c.wantCode {
			t.Errorf("%v: code = %q, want %q", c.err, e.Code, c.wantCode)
		}
	}
}

func TestGetJob(t *testing.T) {
	fb := &fakeBackend{jobs: []master.JobView{{
		Name: "a", State: "running", Iteration: 7, Loss: 0.5,
		Workers: []string{"w0", "w1"}, Profiled: true,
	}}}
	s := New(fb)
	w := doReq(t, s, http.MethodGet, "/v1/jobs/a", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", w.Code, w.Body.String())
	}
	var j JobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	if j.Name != "a" || j.Iteration != 7 || !j.Profiled || len(j.Workers) != 2 {
		t.Errorf("job response = %+v", j)
	}

	w = doReq(t, s, http.MethodGet, "/v1/jobs/nope", "")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", w.Code)
	}
	if e := decodeErr(t, w); e.Code != CodeNotFound {
		t.Errorf("error code = %q", e.Code)
	}
}

func TestCancelJob(t *testing.T) {
	fb := &fakeBackend{}
	s := New(fb)
	w := doReq(t, s, http.MethodDelete, "/v1/jobs/a", "")
	if w.Code != http.StatusOK || fb.lastCancel != "a" {
		t.Fatalf("cancel status = %d, backend saw %q", w.Code, fb.lastCancel)
	}

	fb.cancelErr = master.ErrJobFinished
	if w := doReq(t, s, http.MethodDelete, "/v1/jobs/a", ""); w.Code != http.StatusConflict {
		t.Errorf("cancel of finished job status = %d, want 409", w.Code)
	}
	fb.cancelErr = master.ErrUnknownJob
	if w := doReq(t, s, http.MethodDelete, "/v1/jobs/a", ""); w.Code != http.StatusNotFound {
		t.Errorf("cancel of unknown job status = %d, want 404", w.Code)
	}
}

func TestClusterAndHealthz(t *testing.T) {
	fb := &fakeBackend{cluster: master.ClusterView{
		Workers: []string{"w0", "w1"},
		Groups:  []master.GroupView{{Workers: []string{"w0", "w1"}, Jobs: []string{"a", "b"}}},
		Pending: []string{"c"},
	}}
	s := New(fb)
	w := doReq(t, s, http.MethodGet, "/v1/cluster", "")
	if w.Code != http.StatusOK {
		t.Fatalf("cluster status = %d", w.Code)
	}
	var cv ClusterResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cv); err != nil {
		t.Fatal(err)
	}
	if len(cv.Workers) != 2 || len(cv.Groups) != 1 || len(cv.Pending) != 1 {
		t.Errorf("cluster response = %+v", cv)
	}

	w = doReq(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", w.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 2 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestMetricsExposition(t *testing.T) {
	fb := &fakeBackend{
		jobs: []master.JobView{
			{Name: "a", State: "running"},
			{Name: "b", State: "running"},
			{Name: "c", State: "pending"},
		},
		cluster: master.ClusterView{
			Workers: []string{"w0", "w1"},
			Groups:  []master.GroupView{{Workers: []string{"w0"}, Jobs: []string{"a"}}},
			Pending: []string{"c"},
		},
		counters: master.Counters{
			AdmittedInitial: 1, AdmittedArrival: 2, HeldPending: 3,
			QueueDrained: 1, Canceled: 1, Preempted: 2, Migrations: 4,
			Recoveries: 5, CheckpointFailures: 6, TeardownFailures: 7,
			ProfileRejects: 8,
		},
		queues: []master.QueueView{{
			Name: "default", Share: 1, QuotaWorkers: 2, UsageWorkers: 1,
			Running: 2, Depth: 1, Admitted: 3, Held: 3, Preempted: 2,
		}},
		comm: metrics.CommSnapshot{
			Pulls: 10, Pushes: 9, PullBytes: 4096, PushBytes: 2048,
			PullSeconds: 1.5, PushSeconds: 0.5,
		},
		comp: metrics.CompSnapshot{
			BlockHits: 40, BlockMisses: 8, ReloadStallSeconds: 0.25,
		},
	}
	s := New(fb)
	// A prior request shows up in the per-route counter.
	doReq(t, s, http.MethodGet, "/v1/jobs", "")
	w := doReq(t, s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`harmony_jobs{state="running"} 2`,
		`harmony_jobs{state="pending"} 1`,
		`harmony_jobs{state="finished"} 0`,
		`harmony_queue_depth{queue="default"} 1`,
		`harmony_queue_share{queue="default"} 1`,
		`harmony_queue_usage_workers{queue="default"} 1`,
		`harmony_queue_admitted_total{queue="default"} 3`,
		`harmony_queue_preempted_total{queue="default"} 2`,
		`harmony_preemptions_total 2`,
		`harmony_workers 2`,
		`harmony_groups 1`,
		`harmony_admissions_total{path="initial"} 1`,
		`harmony_admissions_total{path="arrival"} 2`,
		`harmony_admissions_held_total 3`,
		`harmony_queue_drained_total 1`,
		`harmony_jobs_canceled_total 1`,
		`harmony_migrations_total 4`,
		`harmony_recoveries_total 5`,
		`harmony_checkpoint_failures_total 6`,
		`harmony_teardown_failures_total 7`,
		`harmony_profile_rejects_total 8`,
		`harmony_utilization{resource="cpu"} 0.75`,
		`harmony_utilization{resource="network"} 0.5`,
		`harmony_comm_ops_total{op="pull"} 10`,
		`harmony_comm_ops_total{op="push"} 9`,
		`harmony_comm_bytes_total{op="pull"} 4096`,
		`harmony_comm_bytes_total{op="push"} 2048`,
		`harmony_comm_seconds_total{op="pull"} 1.5`,
		`harmony_comm_seconds_total{op="push"} 0.5`,
		`harmony_comp_block_cache_total{result="hit"} 40`,
		`harmony_comp_block_cache_total{result="miss"} 8`,
		`harmony_comp_reload_stall_seconds_total 0.25`,
		`harmony_api_requests_total{route="GET /v1/jobs"} 1`,
		"# TYPE harmony_jobs gauge",
		"# TYPE harmony_admissions_total counter",
	} {
		if !strings.Contains(body, want+"\n") && !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func TestPprofFlagGuarded(t *testing.T) {
	// Without EnablePprof the profile routes must not exist.
	s := New(&fakeBackend{})
	if w := doReq(t, s, http.MethodGet, "/debug/pprof/", ""); w.Code != http.StatusNotFound {
		t.Fatalf("pprof served without EnablePprof: %d", w.Code)
	}
	s = New(&fakeBackend{})
	s.EnablePprof()
	if w := doReq(t, s, http.MethodGet, "/debug/pprof/", ""); w.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d", w.Code)
	}
	if w := doReq(t, s, http.MethodGet, "/debug/pprof/cmdline", ""); w.Code != http.StatusOK {
		t.Fatalf("pprof cmdline status = %d", w.Code)
	}
}

func TestMetricsSkipsUtilizationOnStatsError(t *testing.T) {
	fb := &fakeBackend{statsErr: errors.New("worker down")}
	w := doReq(t, New(fb), http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	if strings.Contains(w.Body.String(), "harmony_utilization") {
		t.Error("utilization emitted despite stats error")
	}
}

func TestPSStatsEndpoint(t *testing.T) {
	fb := &fakeBackend{psStats: ps.ClusterStats{Servers: []ps.ServerStats{{
		Name: "w0", Addr: "127.0.0.1:1",
		StatsReply: ps.StatsReply{Jobs: []ps.JobStats{{
			Job: "j", Stripes: []ps.StripeStat{
				{Index: 0, Len: 4, Primary: true, PullOps: 7, PushOps: 3, LockWaitSeconds: 0.5},
			},
		}}},
	}}}}
	w := doReq(t, New(fb), http.MethodGet, "/v1/ps", "")
	if w.Code != http.StatusOK {
		t.Fatalf("ps status = %d: %s", w.Code, w.Body.String())
	}
	var got ps.ClusterStats
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Servers) != 1 || got.Servers[0].Name != "w0" ||
		got.Servers[0].Jobs[0].Stripes[0].PullOps != 7 {
		t.Fatalf("ps body = %+v", got)
	}

	fb.psErr = errors.New("no workers")
	if w := doReq(t, New(fb), http.MethodGet, "/v1/ps", ""); w.Code == http.StatusOK {
		t.Fatalf("ps error path status = %d", w.Code)
	}
}

func TestMetricsStripeSamples(t *testing.T) {
	fb := &fakeBackend{psStats: ps.ClusterStats{Servers: []ps.ServerStats{{
		Name: "w0", Addr: "127.0.0.1:1",
		StatsReply: ps.StatsReply{Jobs: []ps.JobStats{{
			Job: "j", Stripes: []ps.StripeStat{
				{Index: 2, Len: 4, Primary: true, PullOps: 100, PushOps: 50, LockWaitSeconds: 1.5},
			},
		}}},
	}}}}
	w := doReq(t, New(fb), http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`harmony_ps_stripe_ops_total{op="pull",server="w0",job="j",stripe="2"} 100`,
		`harmony_ps_stripe_ops_total{op="push",server="w0",job="j",stripe="2"} 50`,
		`harmony_ps_stripe_lock_wait_seconds_total{server="w0",job="j",stripe="2"} 1.5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	// A failing scrape must not take /metrics down with it.
	fb.psErr = errors.New("no workers")
	if w := doReq(t, New(fb), http.MethodGet, "/metrics", ""); w.Code != http.StatusOK {
		t.Fatalf("metrics with ps error = %d", w.Code)
	}
}

func TestHealthzReportsUptimeAndVersion(t *testing.T) {
	s := New(&fakeBackend{})
	w := doReq(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" || h.UptimeSeconds < 0 {
		t.Errorf("health = %+v", h)
	}
}

func TestEventsEndpoint(t *testing.T) {
	f := &fakeBackend{events: []master.Event{
		{Seq: 1, Kind: master.EventAdmitInitial, Job: "a",
			Group:                []string{"w0", "w1"},
			PredictedIterSeconds: 2.5, PredictedCPUUtil: 0.8,
			MeasuredIterSeconds: 2.7},
	}}
	s := New(f)
	w := doReq(t, s, http.MethodGet, "/v1/events", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var out EventsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != 1 {
		t.Fatalf("events = %+v", out.Events)
	}
	e := out.Events[0]
	if e.Kind != master.EventAdmitInitial || e.PredictedIterSeconds != 2.5 ||
		e.MeasuredIterSeconds != 2.7 {
		t.Errorf("event round-trip = %+v", e)
	}
	// An empty journal still yields a JSON array, not null.
	w = doReq(t, s, http.MethodGet, "/v1/events", "")
	f.events = nil
	w = doReq(t, s, http.MethodGet, "/v1/events", "")
	if !strings.Contains(w.Body.String(), `"events":[]`) {
		t.Errorf("empty journal body = %s", w.Body.String())
	}
}

func TestEventsFilters(t *testing.T) {
	f := &fakeBackend{events: []master.Event{
		{Seq: 1, Kind: master.EventAdmitInitial, Job: "a"},
		{Seq: 2, Kind: master.EventHold, Job: "b"},
		{Seq: 3, Kind: master.EventAdmitArrival, Job: "c"},
	}}
	s := New(f)
	cases := []struct {
		query string
		want  []uint64
	}{
		{"", []uint64{1, 2, 3}},
		{"?since=1", []uint64{2, 3}},
		{"?since=3", nil},
		{"?kind=hold", []uint64{2}},
		{"?since=2&kind=admit_arrival", []uint64{3}},
	}
	for _, c := range cases {
		w := doReq(t, s, http.MethodGet, "/v1/events"+c.query, "")
		if w.Code != http.StatusOK {
			t.Fatalf("%q: status = %d", c.query, w.Code)
		}
		var out EventsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, e := range out.Events {
			got = append(got, e.Seq)
		}
		if len(got) != len(c.want) {
			t.Errorf("%q: seqs = %v, want %v", c.query, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q: seqs = %v, want %v", c.query, got, c.want)
				break
			}
		}
	}
	w := doReq(t, s, http.MethodGet, "/v1/events?since=nope", "")
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad since: status = %d, want 400", w.Code)
	}
}

// replayableSnapshot is a one-job capture whose single journaled
// admission can be re-modeled, so a self-replay produces a non-empty
// calibration report.
func replayableSnapshot() *master.Snapshot {
	return &master.Snapshot{
		SchemaVersion: master.SnapshotSchemaVersion,
		Workers:       []string{"w0", "w1"},
		Jobs: []master.SnapshotJob{{
			Name: "a", State: "running", Algorithm: "MLR",
			Iterations: 100, Iteration: 5, Workers: []string{"w0", "w1"},
			CompSeconds: 8, NetSeconds: 1, ModelGB: 0.5, WorkGB: 0.3,
			MeasuredIterSeconds: 5.2,
		}},
		Journal: []master.Event{{
			Seq: 1, Kind: master.EventAdmitInitial, Job: "a",
			Group:                []string{"w0", "w1"},
			PredictedIterSeconds: 5, MeasuredIterSeconds: 5.2,
		}},
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	f := &fakeBackend{snap: replayableSnapshot()}
	s := New(f)
	w := doReq(t, s, http.MethodGet, "/v1/snapshot", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var snap master.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != master.SnapshotSchemaVersion ||
		len(snap.Jobs) != 1 || len(snap.Journal) != 1 {
		t.Errorf("snapshot round-trip = %+v", snap)
	}

	// A capture that fails its own schema check must not leave the
	// process as a 200.
	f.snap.SchemaVersion = 99
	w = doReq(t, s, http.MethodGet, "/v1/snapshot", "")
	if w.Code != http.StatusInternalServerError {
		t.Errorf("invalid capture: status = %d, want 500", w.Code)
	}
}

func TestReplayEndpointFeedsMetrics(t *testing.T) {
	f := &fakeBackend{snap: replayableSnapshot()}
	s := New(f)

	// Before any replay the model-error gauges are absent.
	w := doReq(t, s, http.MethodGet, "/metrics", "")
	if strings.Contains(w.Body.String(), "harmony_model_error_ratio") {
		t.Fatalf("model gauges present before replay:\n%s", w.Body.String())
	}

	w = doReq(t, s, http.MethodPost, "/v1/replay", "")
	if w.Code != http.StatusOK {
		t.Fatalf("replay: status = %d: %s", w.Code, w.Body.String())
	}
	var rep replay.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Modeled != 1 || len(rep.Groups) != 1 {
		t.Fatalf("self-replay report = %+v", rep.Overall)
	}

	w = doReq(t, s, http.MethodGet, "/metrics", "")
	body := w.Body.String()
	for _, want := range []string{
		`harmony_model_error_ratio{group="w0,w1",kind="admit_initial"}`,
		"harmony_model_drift_ratio",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics after replay missing %q:\n%s", want, body)
		}
	}

	if w := doReq(t, s, http.MethodPost, "/v1/replay", `{`); w.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", w.Code)
	}
	if w := doReq(t, s, http.MethodPost, "/v1/replay",
		`{"queues":"bad spec;;;"}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad queue override: status = %d, want 400", w.Code)
	}
}

func TestTraceEndpoint(t *testing.T) {
	f := &fakeBackend{traced: true, spans: []obs.TaggedSpan{
		{Span: obs.Span{Seq: 1, Phase: obs.PhaseComp, Job: "a",
			Start: 1_000_000, End: 2_000_000}, Machine: "w0", Group: "w0"},
	}}
	s := New(f)
	w := doReq(t, s, http.MethodGet, "/v1/trace", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("no trace events rendered")
	}
	// Tracing off: still valid, empty trace.
	f.traced, f.spans = false, nil
	w = doReq(t, s, http.MethodGet, "/v1/trace", "")
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil || w.Code != http.StatusOK {
		t.Errorf("disabled trace: code %d err %v", w.Code, err)
	}
}

func TestMetricsPhaseHistogramsAndOverlap(t *testing.T) {
	f := &fakeBackend{traced: true, overlap: map[string]float64{"w0,w1": 0.4}}
	var h metrics.Histogram
	h.Observe(0.01)
	f.phaseHist[obs.PhaseComp] = h.Snapshot()
	s := New(f)
	w := doReq(t, s, http.MethodGet, "/metrics", "")
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE harmony_phase_seconds histogram",
		`harmony_phase_seconds_bucket{phase="comp",le="+Inf"} 1`,
		`harmony_phase_seconds_count{phase="comp"} 1`,
		`harmony_phase_seconds_count{phase="pull"} 0`,
		`harmony_group_overlap_ratio{group="w0,w1"} 0.4`,
		`harmony_build_info{version="`,
		"harmony_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, body)
		}
	}

	// Tracing off: histogram families and overlap gauges disappear, build
	// info stays.
	s2 := New(&fakeBackend{})
	body2 := doReq(t, s2, http.MethodGet, "/metrics", "").Body.String()
	if strings.Contains(body2, "harmony_phase_seconds") {
		t.Error("phase histograms rendered with tracing off")
	}
	if !strings.Contains(body2, "harmony_build_info") {
		t.Error("build info missing with tracing off")
	}
}
