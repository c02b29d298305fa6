package worker

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/rpc"
)

// oddFloats are the values a gob or text codec tends to get wrong: NaNs
// with distinct payloads, both infinities, negative zero, negatives and
// subnormals.
var oddFloats = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signaling NaN payload
	math.Float64frombits(0xfff8dead0000beef), // negative quiet NaN payload
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0,
	-1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.75,
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestBarrierFrameRoundTrip(t *testing.T) {
	for i, f := range oddFloats {
		g := oddFloats[(i+3)%len(oddFloats)]
		h := oddFloats[(i+7)%len(oddFloats)]
		in := BarrierArgs{
			Job: "job-" + string(rune('a'+i)), Worker: "w" + string(rune('0'+i)),
			Iteration: i*1000 - 5, Epoch: -i, CompSeconds: g, NetSeconds: h, Loss: f,
		}
		out, err := ReadBarrierArgs(AppendBarrierArgs(nil, in))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out.Job != in.Job || out.Worker != in.Worker ||
			out.Iteration != in.Iteration || out.Epoch != in.Epoch {
			t.Errorf("case %d: header %+v, want %+v", i, out, in)
		}
		for _, p := range [][2]float64{
			{out.CompSeconds, in.CompSeconds}, {out.NetSeconds, in.NetSeconds}, {out.Loss, in.Loss},
		} {
			if !sameBits(p[0], p[1]) {
				t.Errorf("case %d: float %x round-tripped to %x",
					i, math.Float64bits(p[1]), math.Float64bits(p[0]))
			}
		}
	}
	// Extremes of the integer fields and empty strings.
	in := BarrierArgs{Iteration: math.MaxInt64, Epoch: math.MinInt64}
	out, err := ReadBarrierArgs(AppendBarrierArgs(nil, in))
	if err != nil || out != in {
		t.Errorf("extremes: got %+v, %v; want %+v", out, err, in)
	}

	done := JobDoneArgs{Job: "j", Worker: "w7", Epoch: 42}
	gotDone, err := ReadJobDoneArgs(AppendJobDoneArgs(nil, done))
	if err != nil || gotDone != done {
		t.Errorf("done frame: got %+v, %v; want %+v", gotDone, err, done)
	}

	for _, d := range []Directive{Continue, Pause, Stop} {
		got, err := ReadDirective(AppendDirective(nil, d))
		if err != nil || got != d {
			t.Errorf("directive %d: got %d, %v", d, got, err)
		}
	}
}

// TestBarrierFrameRejectsMalformed feeds every truncation of valid
// frames, a trailing byte, and a string length prefix that overruns the
// frame: each must be an error, never a panic or a silent decode.
func TestBarrierFrameRejectsMalformed(t *testing.T) {
	barrier := AppendBarrierArgs(nil, BarrierArgs{Job: "job", Worker: "w0", Iteration: 3, Loss: 1})
	done := AppendJobDoneArgs(nil, JobDoneArgs{Job: "job", Worker: "w0", Epoch: 1})
	decoders := []struct {
		name  string
		frame []byte
		read  func([]byte) error
	}{
		{"barrier", barrier, func(b []byte) error { _, err := ReadBarrierArgs(b); return err }},
		{"done", done, func(b []byte) error { _, err := ReadJobDoneArgs(b); return err }},
	}
	for _, d := range decoders {
		if err := d.read(d.frame); err != nil {
			t.Fatalf("%s: valid frame rejected: %v", d.name, err)
		}
		for n := 0; n < len(d.frame); n++ {
			if err := d.read(d.frame[:n]); err == nil {
				t.Errorf("%s: %d-byte truncation of %d accepted", d.name, n, len(d.frame))
			}
		}
		long := append(append([]byte(nil), d.frame...), 0)
		if err := d.read(long); err == nil {
			t.Errorf("%s: trailing byte accepted", d.name)
		}
		overrun := append([]byte(nil), d.frame...)
		binary.LittleEndian.PutUint16(overrun, math.MaxUint16)
		if err := d.read(overrun); err == nil {
			t.Errorf("%s: over-long job string accepted", d.name)
		}
	}
	for _, reply := range [][]byte{nil, {}, {byte(Continue), 0}, {0}, {byte(Stop) + 1}} {
		if d, err := ReadDirective(reply); err == nil {
			t.Errorf("reply %v decoded as directive %d", reply, d)
		}
	}
}

// TestBarrierCodecAllocs bounds the per-iteration cost of the frame: a
// reused buffer encodes without allocating, and decoding allocates only
// the job and worker strings.
func TestBarrierCodecAllocs(t *testing.T) {
	a := BarrierArgs{Job: "mlr-17", Worker: "w3", Iteration: 812, Epoch: 2,
		CompSeconds: 0.0004, NetSeconds: 0.0011, Loss: 0.693}
	buf := make([]byte, 0, 64)
	var reply [1]byte
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendBarrierArgs(buf[:0], a)
		if _, err := ReadBarrierArgs(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadDirective(AppendDirective(reply[:0], Continue)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("barrier encode+decode: %.1f allocs/op, want <= 2", allocs)
	}
}

// TestBarrierBadReplyEndsDrive answers the first barrier with a
// two-byte reply: the worker must treat it as an error and stop driving
// the job — no further barrier, no done report.
func TestBarrierBadReplyEndsDrive(t *testing.T) {
	var barriers, dones atomic.Int32
	addr := stubMaster(t, func(raw []byte) ([]byte, error) {
		barriers.Add(1)
		return append(rpc.GetBuffer(2)[:0], byte(Continue), byte(Continue)), nil
	}, func(raw []byte) ([]byte, error) {
		dones.Add(1)
		return nil, nil
	})
	w, ctl := startWorkerWith(t, addr)
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob,
		loadArgs(w, []string{w.srv.Addr()}), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[StartJobArgs, Ack](ctl, MethodStartJob,
		StartJobArgs{Job: "j1", Iterations: 5}, time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		running := w.jobs["j1"].running
		w.mu.Unlock()
		if !running && barriers.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drive loop still running after a malformed barrier reply")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if b, d := barriers.Load(), dones.Load(); b != 1 || d != 0 {
		t.Errorf("after a malformed reply: %d barrier calls and %d done calls, want 1 and 0", b, d)
	}
}
