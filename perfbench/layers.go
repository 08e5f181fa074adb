package main

import (
	"time"

	"cricket/internal/cricket"
	"cricket/internal/obs"
)

// spanTotals sums the spans the obs hooks recorded inside one traced
// window.
type spanTotals struct {
	rpcs, batches, entries int
	encode, wire, decode   time.Duration
	dispatch               time.Duration
}

func sumSpans(spans []obs.Span, from, to int64) spanTotals {
	var t spanTotals
	for i := range spans {
		sp := &spans[i]
		if sp.Start < from || sp.Start > to {
			continue
		}
		d := time.Duration(sp.Dur)
		switch {
		case sp.Side == obs.SideClient && sp.Entry >= 0:
			t.entries++
		case sp.Side == obs.SideClient:
			switch sp.Stage {
			case obs.StageCall:
				t.rpcs++
				if sp.Proc == cricket.ProcBatchExec {
					t.batches++
				}
			case obs.StageEncode:
				t.encode += d
			case obs.StageWire:
				t.wire += d
			case obs.StageDecode:
				t.decode += d
			}
		case sp.Stage == obs.StageRuntime && sp.Entry < 0 && sp.Proc < cricket.ProcSched:
			// One dispatch span per RPC; batch entries and scheduler
			// bookkeeping nest inside it.
			t.dispatch += d
		}
	}
	return t
}

// traced is everything the traced invocation measured.
type traced struct {
	plain, tr *window // untraced and traced windows
	spans     spanTotals
	wire      carrierSnap
	floor     floor
	openLoop  bool
}

// layerMetrics derives the per-layer budget. It also carries the p99
// latencies of the untraced window. They are reported but not gated
// as end-to-end metrics: on a shared two-vCPU host their spread over
// ten seeded runs reached 0.27 to 0.88 of the median, past the largest
// bound a metric may have, even as the median over sub-windows of each
// sub-window's p99. A host stall of a few tens of milliseconds lands
// in the tail of every sub-window it touches, and the serve-decode
// TTFT tail also counts how many arrival bursts queued behind four
// busy slots. Times are per public call, so for every workload the
// client parts add up to cricket.call_us (client_self + encode + wire
// + decode) and the wire parts to oncrpc.wire_us (dispatch + carrier
// write + residual). A public call is one benchmark span on the closed
// loops; on serve-decode it is one call the engine makes on its
// Session: a queued batch entry or an unbatched RPC.
func layerMetrics(t traced) []metric {
	sp, w := t.spans, t.tr
	pub := len(w.calls)
	if t.openLoop {
		pub = sp.entries + sp.rpcs - sp.batches
	}
	per := func(d time.Duration) float64 {
		if pub == 0 {
			return 0
		}
		return us(d) / float64(pub)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	callUS := per(w.busy)
	wireUS := per(sp.wire)
	dispatchUS := per(sp.dispatch)
	writeUS := per(t.wire.write)
	rpcs := float64(sp.rpcs)

	p := t.plain
	var failed float64
	if t.openLoop {
		failed = ratio(float64(p.failed), float64(p.attempted))
	}
	late := quantile(p.late, 0.99)
	return []metric{
		{"cricket.call_us", callUS, "us"},
		{"cricket.overhead_us", callUS - us(t.floor.call), "us"},
		{"cricket.client_self_us", callUS - per(sp.encode+sp.wire+sp.decode), "us"},
		{"cricket.rpcs_per_call", ratio(rpcs, float64(pub)), "count"},
		{"cricket.entries_per_batch", ratio(float64(sp.entries), float64(sp.batches)), "count"},
		{"xdr.encode_us", per(sp.encode), "us"},
		{"xdr.decode_us", per(sp.decode), "us"},
		{"oncrpc.wire_us", wireUS, "us"},
		{"oncrpc.dispatch_us", dispatchUS, "us"},
		{"oncrpc.residual_us", wireUS - dispatchUS - writeUS, "us"},
		{"carrier.syscalls_per_rpc", ratio(float64(t.wire.reads+t.wire.writes), rpcs), "count"},
		{"carrier.bytes_per_rpc", ratio(float64(t.wire.bytes), rpcs), "B"},
		{"carrier.write_us", writeUS, "us"},
		{"cuda.call_us", us(t.floor.call), "us"},
		{"cuda.kernel_us", us(t.floor.kernel), "us"},
		{"go.allocs_per_op", ratio(float64(p.allocObjs), float64(p.ops)), "count"},
		{"go.heap_peak_mib", float64(p.heapPeak) / (1 << 20), "MiB"},
		{"go.gc_cpu_pct", p.gcCPUPct, "%"},
		{"go.gc_pause_p99_us", us(p.pauseP99), "us"},
		{"serve.slots_per_round", ratio(float64(w.launches), float64(w.rounds)), "count"},
		{"serve.rpcs_per_round", ratio(rpcs, float64(w.rounds)), "count"},
		{"serve.failed", failed, "ratio"},
		{"gen.late_p99_ms", ms(late), "ms"},
		{"call_p99_us", us(p.at(p.calls, 0.99)), "us"},
		{"copy_p99_ms", ms(p.at(p.copies, 0.99)), "ms"},
		{"ttft_p99_ms", ms(p.at(p.ttftSamples(), 0.99)), "ms"},
		{"itl_p99_us", us(p.at(p.itl, 0.99)), "us"},
		{"trace.overhead_pct", 100 * (ratio(meanOK(w.itl), meanOK(p.itl)) - 1), "%"},
	}
}

// meanOK is the mean in µs of the samples that are not failures. The
// tracing overhead compares mean result gaps, which do not depend on
// how many tokens the requests of a shorter traced window asked for.
func meanOK(samples []time.Duration) float64 {
	n := 0
	for _, s := range samples {
		if s != failedSample {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return us(sum(samples)) / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
