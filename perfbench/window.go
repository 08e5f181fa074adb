package main

import (
	"time"
)

// A window holds what one timed window of a workload observed from
// outside the program. Each public call the benchmark makes is one
// span: its latency lands in calls, and for calls that move payload
// also in copies. For the open-loop serve-decode workload the public
// call is one generation request, timed from its due time.
type window struct {
	wall time.Duration // length of the timed window

	calls  []time.Duration // latency per public call (failedSample on failure)
	copies []time.Duration // latency per payload-moving call
	ttft   []time.Duration // due time to first result, per call
	itl    []time.Duration // gap between consecutive results of one stream
	late   []time.Duration // how far each call started behind its due time

	htodBytes, dtohBytes int64         // payload moved per direction
	htodTime, dtohTime   time.Duration // time in calls that moved it

	ops       int // denominator of alloc_kib_per_op: a call, a copy or a token
	attempted int
	failed    int
	mismatch  []string // failed output checks, for the report
	errs      []string // first few call errors, for the report

	// busy is the time the program worked on public calls: the summed
	// call spans of a closed loop, the union of in-flight requests of
	// an open one.
	busy time.Duration

	// Serving-engine counters over the window (serve-decode only).
	rounds, launches uint64
	sloMissed        int // requests over the TTFT or token-gap budget

	goDelta
}

func newWindow(capacity int) *window {
	return &window{
		calls:  make([]time.Duration, 0, capacity),
		copies: make([]time.Duration, 0, capacity),
		itl:    make([]time.Duration, 0, capacity),
		late:   make([]time.Duration, 0, capacity),
	}
}

// reset empties w for the next window, keeping its sample buffers.
func (w *window) reset() {
	*w = window{calls: w.calls[:0], copies: w.copies[:0], ttft: w.ttft[:0], itl: w.itl[:0], late: w.late[:0]}
}

// at returns the q-quantile of samples, which it sorts in place. A
// quantile that lands on a failed op reads as the whole window.
func (w *window) at(samples []time.Duration, q float64) time.Duration {
	if v := quantile(samples, q); v != failedSample {
		return v
	}
	return w.wall
}

// ttftSamples are the due-to-first-result times: the call latencies
// of a closed loop, where an op is due when issued.
func (w *window) ttftSamples() []time.Duration {
	if len(w.ttft) == 0 {
		return w.calls
	}
	return w.ttft
}

// closedLoop tracks a single closed-loop client: every call is due the
// moment the previous one returned.
type closedLoop struct {
	w    *window
	last time.Time
}

// call records one public call that ran from t0 to t1. ok is false
// when the call returned an error.
func (cl *closedLoop) call(t0, t1 time.Time, ok bool) time.Duration {
	d := t1.Sub(t0)
	cl.w.attempted++
	cl.w.busy += d
	if !ok {
		cl.w.failed++
		d = failedSample
	}
	cl.w.calls = append(cl.w.calls, d)
	if !cl.last.IsZero() {
		cl.w.late = append(cl.w.late, t0.Sub(cl.last))
		cl.w.itl = append(cl.w.itl, t1.Sub(cl.last))
	}
	cl.last = t1
	return d
}

// copyCall records a public call that moved n payload bytes.
func (cl *closedLoop) copyCall(t0, t1 time.Time, ok bool, n int, toDevice bool) {
	d := cl.call(t0, t1, ok)
	cl.w.copies = append(cl.w.copies, d)
	if !ok {
		return
	}
	if toDevice {
		cl.w.htodBytes += int64(n)
		cl.w.htodTime += d
	} else {
		cl.w.dtohBytes += int64(n)
		cl.w.dtohTime += d
	}
}

func (w *window) mismatchf(what string) {
	w.failed++
	w.mismatch = append(w.mismatch, what)
}

// note keeps the first few call errors for the report.
func (w *window) note(err error) {
	if err != nil && len(w.errs) < 4 {
		w.errs = append(w.errs, err.Error())
	}
}
