package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Outcome classifies how one attempted operation ended. Expected
// outcomes are what a correct system does under this load and are only
// counted; every other outcome is an infrastructure failure and fails
// the run.
type Outcome string

const (
	// Expected outcomes.
	OutcomeOK         Outcome = "ok"
	OutcomeHeld       Outcome = "held"        // 202: queued by admission
	OutcomeQuotaGated Outcome = "quota_gated" // held because the queue is at quota
	OutcomeDuplicate  Outcome = "duplicate"   // 409: the name is taken

	// Infrastructure failures.
	OutcomeHTTP5xx     Outcome = "http_5xx"
	OutcomeHTTPOther   Outcome = "http_unexpected_status"
	OutcomeTransport   Outcome = "transport_error"
	OutcomeWaitTimeout Outcome = "wait_timeout"
	OutcomeCheckFailed Outcome = "output_check_failed"
)

// IsExpected reports whether an outcome is normal behaviour rather than
// a failure.
func IsExpected(o Outcome) bool {
	switch o {
	case OutcomeOK, OutcomeHeld, OutcomeQuotaGated, OutcomeDuplicate:
		return true
	}
	return false
}

// errCheck marks a failed output check.
var errCheck = errors.New("output check failed")

func checkFailed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// ledger counts attempts and outcomes. A job is one attempt whatever its
// path; failures are counted once per attempt.
type ledger struct {
	mu       sync.Mutex
	attempts int
	fails    int
	counts   map[Outcome]int
	msgs     []string
}

func newLedger() *ledger { return &ledger{counts: make(map[Outcome]int)} }

// attempt counts one operation.
func (l *ledger) attempt() {
	l.mu.Lock()
	l.attempts++
	l.mu.Unlock()
}

// note records an outcome; a failure outcome also counts against the
// attempts and keeps its message (the first few).
func (l *ledger) note(o Outcome, msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[o]++
	if IsExpected(o) {
		return
	}
	l.fails++
	if len(l.msgs) < 20 {
		l.msgs = append(l.msgs, fmt.Sprintf("%s: %s", o, msg))
	}
}

// fail records an error as the failure of one attempt, classifying it.
func (l *ledger) fail(err error) {
	o := OutcomeTransport
	var he *httpError
	switch {
	case errors.Is(err, errCheck):
		o = OutcomeCheckFailed
	case errors.Is(err, errWaitTimeout):
		o = OutcomeWaitTimeout
	case errors.As(err, &he) && he.code >= 500:
		o = OutcomeHTTP5xx
	case errors.As(err, &he):
		o = OutcomeHTTPOther
	}
	l.note(o, err.Error())
}

func (l *ledger) attempted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempts
}

func (l *ledger) failed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fails
}

func (l *ledger) failRatio() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ratio(float64(l.fails), float64(l.attempts))
}

func (l *ledger) outcomes() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int, len(l.counts))
	for o, n := range l.counts {
		out[string(o)] = n
	}
	return out
}

func (l *ledger) messages() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.msgs...)
}

func (l *ledger) report(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(w, "attempted %d, failed %d (fail_ratio %.4g)\n",
		l.attempts, l.fails, ratio(float64(l.fails), float64(l.attempts)))
	for _, o := range sortedKeys(l.counts) {
		kind := "failure"
		if IsExpected(o) {
			kind = "expected"
		}
		fmt.Fprintf(w, "  outcome %-24s %6d (%s)\n", o, l.counts[o], kind)
	}
	for _, m := range l.msgs {
		fmt.Fprintln(w, "  failure:", m)
	}
}
