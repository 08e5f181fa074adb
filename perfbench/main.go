// Command perfbench is the wall-clock benchmark of the Cricket stack.
// It boots the server in-process the way cmd/cricket-server does
// (cricket.NewServer on a nil-clock cuda.Runtime with one A100,
// served by oncrpc on a 127.0.0.1 TCP listener), drives one seeded
// workload through the public client APIs, checks every output, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	perfbench --workload call-mix|bulk-copy|serve-decode --seed N --seconds S --trace 0|1
//
// Every metric is wall-clock time on the machine that runs it, printed
// with the tag wall. The process runs on one P (GOMAXPROCS 1): client,
// server and Go runtime share one core, so a call costs the work its
// layers do, not how soon the host wakes a second virtual CPU. With
// two Ps on a shared two-vCPU host every RPC hands off between the
// CPUs, and over runs of the same code the middle half of the 1 MiB
// copy rates spread over 0.4 to 0.5 of their median as the host's load
// changed; on one P they spread over about 0.1, what a bare memcpy
// loop spread over on the same host. The modelled clock of the
// paper's figures appears only as a guard that runs once per
// invocation, outside every timed window, printed with the tag sim.
//
// With --trace 0 the run reports the end-to-end metrics, each the
// median over sub-windows of --seconds (see endToEnd). With --trace 1
// it splits --seconds into an untraced window and a traced one (obs
// collector on client and server, counting carrier on both ends of
// every connection, a span around each public call), then replays the
// workload's calls on a bare cuda.Runtime, and reports the per-layer
// budget (see layerMetrics).
//
// Every workload emits every end-to-end metric. An op is a public call
// on call-mix, a 1 MiB copy call on bulk-copy and a generation request
// on serve-decode:
//
//   - call_p50_us: op latency, from its due time on serve-decode;
//     calls_per_s: ops completed per second.
//   - htod_MiBps, dtoh_MiBps: payload bytes per direction over the
//     summed latency of the ops that carried them (call-mix: the 4 KiB
//     copies; serve-decode: prompt bytes in, 4-byte tokens out).
//   - ttft_p50_ms: due time to an op's first result. In a closed loop
//     an op is due when issued and has one result, so this is the op
//     latency; on serve-decode it is the first OnToken.
//   - itl_p50_us: gap between consecutive results of one stream:
//     consecutive tokens of a request on serve-decode, consecutive call
//     completions of the single closed-loop client.
//   - alloc_kib_per_op: KiB the whole process allocates per public
//     call, per copy or per token.
//   - setup_s: server boot, dial, module load and, on serve-decode,
//     serve.New with its weight upload, up to the first timed op.
//
// The p99 of each of these latencies (call_p99_us, copy_p99_ms over
// the payload-moving ops, ttft_p99_ms, itl_p99_us) is reported with
// the per-layer metrics, ungated (see layerMetrics). A failed op
// counts as an infinite latency; a percentile that lands on one reads
// as the whole window.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/obs"
)

type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	k        checker
	// skipGuard leaves out the modelled-clock guard (self-test only).
	skipGuard bool
}

const (
	setupRepeats = 24      // boots per run at least; setup_s is their median
	ringSize     = 1 << 19 // spans the traced window may record
)

// spansPerOp bounds the spans one op leaves in the ring, so that a
// traced window stops before the ring could wrap. An RPC leaves five
// (client call, encode, wire, decode; server dispatch) and a batch
// entry two. A closed-loop op is at most two calls of one RPC each; a
// serve-decode request averages about 750, and 2000 covers a request
// decoded alone, when no other stream shares its rounds' RPCs.
func spansPerOp(name string) int {
	if name == "serve-decode" {
		return 2000
	}
	return 10
}

func newWorkload(name string, seed int64, k checker) (workload, error) {
	switch name {
	case "call-mix":
		return newCallMix(seed, k), nil
	case "bulk-copy":
		return newBulkCopy(seed, k), nil
	case "serve-decode":
		return newServeDecode(seed, k), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want call-mix, bulk-copy or serve-decode)", name)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "call-mix, bulk-copy or serve-decode")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured time")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	flag.Parse()
	runtime.GOMAXPROCS(1)
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --trace 0 or 1 and --seconds > 0")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and returns its report; human-readable
// lines go to log. An error means no result could be produced.
func run(cfg config, log io.Writer) (report, error) {
	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.k)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v GOMAXPROCS %d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())
	rl := &runLog{rep: report{Correct: true, Metrics: map[string]jsonMetric{}}, w: log}
	if !cfg.skipGuard {
		got, err := guardModelled(modelledJSON)
		if err != nil {
			rl.fail("%v", err)
		} else {
			fmt.Fprintf(log, "sim  modelled guard matches: Hermit %v %v %v us/call, %v %v MiB/s\n",
				got.Fig6a, got.Fig6b, got.Fig6c, got.DtoH, got.HtoD)
		}
	}
	d := time.Duration(cfg.seconds * float64(time.Second))

	var out []metric
	if cfg.trace {
		out, err = perLayer(wl, cfg.workload, d, rl)
	} else {
		out, err = endToEnd(wl, d, rl)
	}
	if err != nil {
		return report{}, err
	}
	for _, m := range out {
		fmt.Fprintf(log, "wall %-26s %16.4f %s\n", m.name, m.value, m.unit)
		rl.rep.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return rl.rep, nil
}

// runLog collects the report of one invocation and prints its
// findings as they happen.
type runLog struct {
	rep report
	w   io.Writer
}

func (rl *runLog) fail(format string, args ...any) {
	rl.rep.Correct = false
	fmt.Fprintf(rl.w, "FAIL "+format+"\n", args...)
}

// tally folds one window's op counts and findings into the report.
func (rl *runLog) tally(w *window) {
	rl.rep.Attempted += w.attempted
	rl.rep.Failed += w.failed
	for _, m := range w.mismatch {
		rl.fail("%s", m)
	}
	for _, e := range w.errs {
		fmt.Fprintf(rl.w, "error %s\n", e)
	}
	if w.attempted == 0 {
		rl.fail("no op completed in a window")
	}
	if w.sloMissed > 0 {
		fmt.Fprintf(rl.w, "slo  %d of %d requests missed the %v TTFT or %v token-gap budget\n",
			w.sloMissed, w.attempted, ttftLimit, itlLimit)
	}
	if late := quantile(w.late, 0.99); late > ttftLimit/10 {
		fmt.Fprintf(rl.w, "FLAG generator p99 %.3f ms behind its schedule: TTFT of this run is suspect\n", ms(late))
	}
}

// endToEnd measures an untraced run in sub-windows of the workload's
// part length. Every sub-window runs on a freshly booted stack, and
// the boots before it are what setup_s times, so set-up is sampled
// across the whole run. Each metric is the median over the
// sub-windows, which are short (0.1 to 0.5 s) so that a run holds
// dozens: a burst of interference from outside the benchmark, or a GC
// pacing state one stack happened to settle in, moves a few
// sub-windows, not the result. The sub-windows reuse one sample buffer,
// which keeps the benchmark's own live heap, and so the program's GC
// pacing, the same in each.
func endToEnd(wl workload, d time.Duration, rl *runLog) ([]metric, error) {
	parts := int(math.Max(1, math.Round(d.Seconds()/wl.part().Seconds())))
	part := d / time.Duration(parts)
	boots := (setupRepeats + parts - 1) / parts
	w := newWindow(int(part.Seconds()*float64(wl.perSecond())) + 1024)
	var out []metric
	var vals [][]float64
	var setup []float64
	for i := 0; i < parts; i++ {
		runtime.GC()
		var s *stack
		for b := 0; b < boots; b++ {
			if s != nil {
				wl.close()
				s.close()
			}
			t0 := time.Now()
			var err error
			if s, err = open(wl, nil); err != nil {
				return nil, err
			}
			setup = append(setup, time.Since(t0).Seconds())
		}
		w.reset()
		timed(wl, w, part, 0)
		wl.close()
		s.close()
		rl.tally(w)
		for j, m := range windowMetrics(w) {
			if i == 0 {
				out = append(out, m)
				vals = append(vals, nil)
			}
			vals[j] = append(vals[j], m.value)
		}
	}
	for j := range out {
		out[j].value = median(vals[j])
	}
	return append(out, metric{"setup_s", median(setup), "s"}), nil
}

// perLayer measures a traced run: an untraced window of half the time,
// then a traced one on a fresh stack whose obs collector, carrier and
// benchmark spans give the layer budget, then the bare-runtime replay.
func perLayer(wl workload, name string, d time.Duration, rl *runLog) ([]metric, error) {
	capacity := int(d.Seconds()/2*float64(wl.perSecond())) + 1024
	s, err := open(wl, nil)
	if err != nil {
		return nil, err
	}
	plain := newWindow(capacity)
	timed(wl, plain, d/2, 0)
	wl.close()
	s.close()
	rl.tally(plain)

	col := cricket.NewCollector(ringSize)
	if s, err = open(wl, col); err != nil {
		return nil, err
	}
	t := traced{plain: plain, tr: newWindow(capacity), openLoop: name == "serve-decode"}
	wire0, from := s.wire.snap(), col.Now()
	timed(wl, t.tr, d/2, ringSize/spansPerOp(name))
	to := col.Now()
	t.wire = s.wire.snap().sub(wire0)
	wl.close()
	s.close()
	rl.tally(t.tr)
	spans := col.Spans()
	if len(spans) >= ringSize {
		rl.fail("span ring of %d wrapped during the traced window", ringSize)
	}
	t.spans = sumSpans(spans, from, to)
	fmt.Fprintf(rl.w, "trace %d spans, %d RPCs, %d batch entries, %d public calls in the traced window\n",
		len(spans), t.spans.rpcs, t.spans.entries, len(t.tr.calls))
	if t.floor, err = wl.replay(); err != nil {
		return nil, fmt.Errorf("cuda replay: %w", err)
	}
	return layerMetrics(t), nil
}

// open boots a stack (traced when col is set) and sets the workload
// up on it.
func open(wl workload, col *obs.Collector) (*stack, error) {
	s, err := boot(col)
	if err != nil {
		return nil, err
	}
	if err := wl.setup(s); err != nil {
		wl.close()
		s.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	return s, nil
}

// timed runs one timed window of the workload into w, with the Go
// runtime's counters read around it, then the workload's output
// checks.
func timed(wl workload, w *window, d time.Duration, maxOps int) {
	runtime.GC()
	g0 := readGoStats()
	heap := startHeapSampler()
	wl.run(d, maxOps, w)
	peak := heap.Stop()
	w.goDelta = deltaGoStats(g0, readGoStats(), peak)
	wl.check(w)
}

// windowMetrics derives the end-to-end metrics of one window.
func windowMetrics(w *window) []metric {
	at := w.at
	ok := 0
	for _, c := range w.calls {
		if c != failedSample {
			ok++
		}
	}
	perSec := func(n float64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return n / d.Seconds()
	}
	wall := w.wall
	ops := w.ops
	if ops == 0 {
		ops = 1
	}
	return []metric{
		{"alloc_kib_per_op", float64(w.allocBytes) / 1024 / float64(ops), "KiB"},
		{"call_p50_us", us(at(w.calls, 0.50)), "us"},
		{"calls_per_s", perSec(float64(ok), wall), "1/s"},
		{"htod_MiBps", perSec(float64(w.htodBytes)/(1<<20), w.htodTime), "MiB/s"},
		{"dtoh_MiBps", perSec(float64(w.dtohBytes)/(1<<20), w.dtohTime), "MiB/s"},
		{"ttft_p50_ms", ms(at(w.ttftSamples(), 0.50)), "ms"},
		{"itl_p50_us", us(at(w.itl, 0.50)), "us"},
	}
}
