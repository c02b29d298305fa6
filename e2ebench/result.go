package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// result gathers one run's metrics, the samples behind them, the
// failure ledger and free-form report lines.
type result struct {
	cfg    runConfig
	ledger *ledger
	values map[string]float64
	units  map[string]string
	// samples keeps the distribution behind a metric (JCTs, round
	// latencies, ...) for the record's quartiles.
	samples map[string][]float64
	notes   []string
	blocks  []string
	spans   *spanLog
}

func newResult(cfg runConfig) *result {
	r := &result{
		cfg:     cfg,
		ledger:  newLedger(),
		values:  make(map[string]float64),
		units:   make(map[string]string),
		samples: make(map[string][]float64),
	}
	if cfg.trace {
		r.spans = &spanLog{}
	}
	return r
}

// set records a measured value. The result line carries the end-to-end
// or the per-layer set, by the run's kind; the report prints the rest.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.notef("metric %s is not finite (%v); reported as 0", name, v)
		v = 0
	}
	r.values[name] = v
	r.units[name] = unit
}

// sample stores a distribution under a name, in the given unit.
func (r *result) sample(name, unit string, xs []float64) {
	r.samples[name] = append([]float64(nil), xs...)
	r.units[name] = unit
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// block adds a pre-formatted section to the report.
func (r *result) block(write func(w io.Writer)) {
	var b strings.Builder
	write(&b)
	r.blocks = append(r.blocks, b.String())
}

func (r *result) correct() bool { return r.ledger.failed() == 0 }

func (r *result) metricSet() []metricDef {
	if r.cfg.trace {
		return perLayer
	}
	return endToEnd
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

func (r *result) final() finalLine {
	out := finalLine{
		Correct:   r.correct(),
		Attempted: max(r.ledger.attempted(), 1),
		Failed:    r.ledger.failed(),
		Metrics:   make(map[string]finalMetric),
	}
	for _, d := range r.metricSet() {
		out.Metrics[d.name] = finalMetric{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// printReport writes every metric by name with its unit (n/a for layers
// the workload does not reach), the sample distributions, the failure
// ledger and the notes.
func (r *result) printReport(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	kind := "end-to-end"
	if r.cfg.trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s metrics:\n", kind)
	for _, d := range r.metricSet() {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(w, "  %-36s %14s %s (not exercised by %s)\n", d.name, "n/a", d.unit, r.cfg.workload)
		}
	}
	if extra := r.extraNames(); len(extra) > 0 {
		fmt.Fprintln(w, "other measurements of this run:")
		for _, name := range extra {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, r.values[name], r.units[name])
		}
	}
	if len(r.samples) > 0 {
		fmt.Fprintln(w, "distributions (n, min, q1, median, q3, max):")
		for _, name := range sortedKeys(r.samples) {
			s := summarize(r.samples[name])
			fmt.Fprintf(w, "  %-36s n=%d %.4g %.4g %.4g %.4g %.4g %s\n",
				name, s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, r.units[name])
		}
	}
	for _, b := range r.blocks {
		fmt.Fprint(w, b)
	}
	r.ledger.report(w)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	if r.spans != nil {
		r.spans.report(w)
	}
}

// extraNames lists recorded values outside the reported metric set.
func (r *result) extraNames() []string {
	in := make(map[string]bool)
	for _, d := range r.metricSet() {
		in[d.name] = true
	}
	var out []string
	for name := range r.values {
		if !in[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// recordMetric is one metric of the environment record: the value the
// result line reports and, where the run has a distribution behind it,
// that distribution's quartiles.
type recordMetric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Dist  *summary `json:"distribution,omitempty"`
}

type runRecord struct {
	Workload string                  `json:"workload"`
	Why      string                  `json:"why"`
	Seed     int64                   `json:"seed"`
	Seconds  float64                 `json:"seconds"`
	Trace    bool                    `json:"trace"`
	Time     time.Time               `json:"time"`
	Env      envInfo                 `json:"environment"`
	Result   finalLine               `json:"result"`
	Metrics  map[string]recordMetric `json:"metrics"`
	Samples  map[string]summary      `json:"samples"`
	Outcomes map[string]int          `json:"outcomes"`
	Failures []string                `json:"failures,omitempty"`
	Notes    []string                `json:"notes,omitempty"`
	Spans    []benchSpan             `json:"bench_spans,omitempty"`
}

func (r *result) record(why string) runRecord {
	rec := runRecord{
		Workload: r.cfg.workload, Why: why, Seed: r.cfg.seed,
		Seconds: r.cfg.seconds, Trace: r.cfg.trace, Time: time.Now().UTC(),
		Env: environment(), Result: r.final(),
		Metrics:  make(map[string]recordMetric),
		Samples:  make(map[string]summary),
		Outcomes: r.ledger.outcomes(),
		Failures: r.ledger.messages(),
		Notes:    r.notes,
	}
	for name, v := range r.values {
		rm := recordMetric{Value: v, Unit: r.units[name]}
		if xs, ok := r.samples[name]; ok {
			s := summarize(xs)
			rm.Dist = &s
		}
		rec.Metrics[name] = rm
	}
	for name, xs := range r.samples {
		rec.Samples[name] = summarize(xs)
	}
	if r.spans != nil {
		rec.Spans = r.spans.all()
	}
	return rec
}

func writeRecord(rec runRecord) (string, error) {
	dir := filepath.Join(outDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v-%d.json",
		rec.Workload, rec.Seed, rec.Trace, rec.Time.UnixNano()))
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout)"
}

// sourceHash identifies the code under test when no commit is known: a
// digest over the module's Go sources and go.mod, in path order. The
// benchmark runs from the module root.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(body))
		h.Write(body)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
