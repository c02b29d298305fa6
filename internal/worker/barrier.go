package worker

import (
	"fmt"
	"math"
	"time"

	"harmony/internal/rpc"
)

// This file is the wire format of the two calls a worker's drive loop
// makes to the master: the per-iteration barrier (the SubTask
// Synchronizer of Fig. 7) and the final done report. The barrier is the
// most frequent control-plane RPC — one per iteration per worker — so
// both skip gob for a fixed little-endian layout built in pooled
// buffers:
//
//	barrier request: str job | str worker | i64 iteration | i64 epoch |
//	                 f64 comp seconds | f64 net seconds | f64 loss
//	barrier reply:   u8 directive
//	done request:    str job | str worker | i64 epoch
//	done reply:      empty
//
// Strings are u16-length-prefixed (rpc.AppendString). Floats travel as
// their IEEE-754 bit patterns (math.Float64bits), so NaN, ±Inf and -0
// round-trip bit-exactly. A frame with missing or trailing bytes is an
// error.

// BarrierArgs is the per-iteration synchronization call to the master.
// The one-byte reply is the Directive for the next iteration.
type BarrierArgs struct {
	Job       string
	Worker    string
	Iteration int
	// Epoch is the placement epoch from StartJobArgs; mismatched calls
	// are stale and answered with Stop.
	Epoch int
	// Measured subtask seconds for profiling (§IV-B1).
	CompSeconds float64
	NetSeconds  float64
	// Loss lets the master track convergence.
	Loss float64
}

// Directive is the master's instruction at an iteration boundary.
type Directive int

// Directives.
const (
	Continue Directive = iota + 1
	Pause
	Stop
)

// JobDoneArgs reports that this worker finished all iterations.
type JobDoneArgs struct {
	Job    string
	Worker string
	Epoch  int
}

// AppendBarrierArgs appends the barrier request frame of a to dst.
func AppendBarrierArgs(dst []byte, a BarrierArgs) []byte {
	dst = rpc.AppendString(dst, a.Job)
	dst = rpc.AppendString(dst, a.Worker)
	dst = rpc.AppendUint64(dst, uint64(a.Iteration))
	dst = rpc.AppendUint64(dst, uint64(a.Epoch))
	dst = rpc.AppendUint64(dst, math.Float64bits(a.CompSeconds))
	dst = rpc.AppendUint64(dst, math.Float64bits(a.NetSeconds))
	return rpc.AppendUint64(dst, math.Float64bits(a.Loss))
}

// ReadBarrierArgs decodes a barrier request frame.
func ReadBarrierArgs(b []byte) (BarrierArgs, error) {
	r := frameReader{b: b}
	a := BarrierArgs{
		Job:         r.str(),
		Worker:      r.str(),
		Iteration:   r.int(),
		Epoch:       r.int(),
		CompSeconds: r.float(),
		NetSeconds:  r.float(),
		Loss:        r.float(),
	}
	return a, r.end("barrier")
}

// AppendJobDoneArgs appends the done request frame of a to dst.
func AppendJobDoneArgs(dst []byte, a JobDoneArgs) []byte {
	dst = rpc.AppendString(dst, a.Job)
	dst = rpc.AppendString(dst, a.Worker)
	return rpc.AppendUint64(dst, uint64(a.Epoch))
}

// ReadJobDoneArgs decodes a done request frame.
func ReadJobDoneArgs(b []byte) (JobDoneArgs, error) {
	r := frameReader{b: b}
	a := JobDoneArgs{Job: r.str(), Worker: r.str(), Epoch: r.int()}
	return a, r.end("done")
}

// AppendDirective appends the one-byte barrier reply.
func AppendDirective(dst []byte, d Directive) []byte {
	return append(dst, byte(d))
}

// ReadDirective decodes a barrier reply: exactly one byte naming a known
// directive.
func ReadDirective(b []byte) (Directive, error) {
	if len(b) != 1 {
		return 0, fmt.Errorf("worker: barrier reply is %d bytes, want 1", len(b))
	}
	d := Directive(b[0])
	if d < Continue || d > Stop {
		return 0, fmt.Errorf("worker: unknown barrier directive %d", b[0])
	}
	return d, nil
}

// frameReader walks a frame field by field; the first short field sticks
// as the error and later reads return zero values.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) str() string {
	if r.err != nil {
		return ""
	}
	var s string
	s, r.b, r.err = rpc.ReadString(r.b)
	return s
}

func (r *frameReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	v, r.b, r.err = rpc.ReadUint64(r.b)
	return v
}

func (r *frameReader) int() int       { return int(int64(r.u64())) }
func (r *frameReader) float() float64 { return math.Float64frombits(r.u64()) }

// end reports the frame's first error, or trailing bytes after its last
// field.
func (r *frameReader) end(what string) error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("worker: %s frame: %w", what, r.err)
	}
	return nil
}

// barrier runs one iteration's barrier round trip on pooled buffers and
// returns the master's directive. A malformed reply is an error.
func (w *Worker) barrier(a BarrierArgs) (Directive, error) {
	body := AppendBarrierArgs(rpc.GetBuffer(0)[:0], a)
	reply, err := w.master.Call(MethodBarrier, body, time.Minute)
	rpc.PutBuffer(body)
	if err != nil {
		return 0, err
	}
	d, err := ReadDirective(reply)
	rpc.PutBuffer(reply)
	return d, err
}

// jobDone reports this worker's completion of a job to the master.
func (w *Worker) jobDone(a JobDoneArgs) error {
	body := AppendJobDoneArgs(rpc.GetBuffer(0)[:0], a)
	reply, err := w.master.Call(MethodJobDone, body, time.Minute)
	rpc.PutBuffer(body)
	rpc.PutBuffer(reply)
	return err
}
