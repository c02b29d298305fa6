package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/master"
	"harmony/internal/worker"
)

// numWorkers is the cluster size of the live workloads.
const numWorkers = 4

// cluster is one in-process Harmony deployment: a master, its workers
// and the HTTP control plane, each listening on its own localhost port.
// The benchmark talks to the control plane over at most two
// connections — one for submissions, one for the status poller — and
// calls the master's public functions in-process for what HTTP does not
// carry (completion waits, span collection, counters).
type cluster struct {
	m       *master.Master
	workers []*worker.Worker
	api     *ctl.Server
	base    string
	names   []string
	dir     string
	spans   *spanLog

	submitC *http.Client
	pollC   *http.Client
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// bootCluster starts the master, numWorkers workers and the control
// plane. Spill files live under dir.
func bootCluster(dir string, opts core.Options, spans *spanLog) (*cluster, error) {
	m, err := master.New("127.0.0.1:0", opts)
	if err != nil {
		return nil, fmt.Errorf("start master: %w", err)
	}
	c := &cluster{m: m, dir: dir, spans: spans, submitC: oneConnClient(), pollC: oneConnClient()}
	for i := 0; i < numWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		spill := filepath.Join(dir, name)
		if err := os.MkdirAll(spill, 0o755); err != nil {
			c.close()
			return nil, err
		}
		w, _, err := worker.New(name, "127.0.0.1:0", m.Addr(), spill)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start worker %s: %w", name, err)
		}
		c.workers = append(c.workers, w)
		c.names = append(c.names, name)
	}
	if err := m.WaitForWorkers(numWorkers, 30*time.Second); err != nil {
		c.close()
		return nil, err
	}
	c.api = ctl.New(m)
	if err := c.api.Start("127.0.0.1:0"); err != nil {
		c.close()
		return nil, err
	}
	c.base = "http://" + c.api.Addr()
	return c, nil
}

// enableTracing turns span recording on across the cluster. Master
// retention is kept small because the collector drains it often.
func (c *cluster) enableTracing() {
	c.m.EnableTracing(1 << 15)
	for _, w := range c.workers {
		w.EnableTracing(0)
	}
}

func (c *cluster) close() {
	if c.api != nil {
		c.api.Close()
	}
	c.m.Close()
	for _, w := range c.workers {
		w.Close()
	}
	c.submitC.CloseIdleConnections()
	c.pollC.CloseIdleConnections()
	os.RemoveAll(c.dir)
}

// httpError is a non-2xx control-plane answer.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// submitResult is a POST /v1/jobs outcome with its round-trip time.
type submitResult struct {
	code  int
	state string
	sent  time.Time
	rtt   time.Duration
}

// submit POSTs one job. 201 and 202 are answers; 409 is returned with
// its code so the caller can count a duplicate; anything else is an
// error.
func (c *cluster) submit(req ctl.SubmitRequest) (submitResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return submitResult{}, err
	}
	var out submitResult
	err = c.spans.around("ctl", "POST /v1/jobs", func() error {
		out.sent = time.Now()
		resp, err := c.submitC.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("submit %s: %w", req.Name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		out.rtt = time.Since(out.sent)
		out.code = resp.StatusCode
		if err != nil {
			return fmt.Errorf("submit %s: reading body: %w", req.Name, err)
		}
		switch resp.StatusCode {
		case http.StatusCreated, http.StatusAccepted:
			var sr ctl.SubmitResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				return fmt.Errorf("submit %s: decoding %q: %w", req.Name, raw, err)
			}
			out.state = sr.State
			return nil
		case http.StatusConflict:
			return nil
		default:
			return fmt.Errorf("submit %s: %w", req.Name, &httpError{resp.StatusCode, string(raw)})
		}
	})
	return out, err
}

// clusterStatus is one GET /v1/cluster round trip on the poller's
// connection.
func (c *cluster) clusterStatus() (time.Duration, error) {
	var rtt time.Duration
	err := c.spans.around("ctl", "GET /v1/cluster", func() error {
		start := time.Now()
		resp, err := c.pollC.Get(c.base + "/v1/cluster")
		if err != nil {
			return fmt.Errorf("status poll: %w", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rtt = time.Since(start)
		if err != nil {
			return fmt.Errorf("status poll: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status poll: %w", &httpError{resp.StatusCode, string(raw)})
		}
		var cv ctl.ClusterResponse
		if err := json.Unmarshal(raw, &cv); err != nil {
			return fmt.Errorf("status poll: decoding: %w", err)
		}
		if len(cv.Workers) != numWorkers {
			return checkFailed("GET /v1/cluster lists %d workers, want %d", len(cv.Workers), numWorkers)
		}
		return nil
	})
	return rtt, err
}

var errWaitTimeout = errors.New("wait timed out")

// wait blocks until the job finishes, returning when it did.
func (c *cluster) wait(name string, timeout time.Duration) (time.Time, error) {
	var done time.Time
	err := c.spans.around("master", "WaitJob", func() error {
		if err := c.m.WaitJob(name, timeout); err != nil {
			if errors.Is(err, master.ErrUnknownJob) {
				return err
			}
			return fmt.Errorf("%w: %v", errWaitTimeout, err)
		}
		done = time.Now()
		return nil
	})
	return done, err
}

// job reads a job's final status in-process.
func (c *cluster) job(name string) (master.JobView, bool) {
	var v master.JobView
	var ok bool
	c.spans.around("master", "Job", func() error {
		v, ok = c.m.Job(name)
		return nil
	})
	return v, ok
}
