package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// failedSample stands in for the latency of an op that failed: it
// sorts after every real sample, so a failure can only worsen a
// percentile, never improve it.
const failedSample = time.Duration(math.MaxInt64)

// quantile returns the q-quantile (nearest rank) of samples, which it
// sorts in place. It returns failedSample when the rank lands on a
// failed op and 0 for an empty sample.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return samples[rank]
}

// median returns the median of vs (mean of the middle two for an even
// count); vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// sum totals the samples that did not fail.
func sum(samples []time.Duration) time.Duration {
	var t time.Duration
	for _, s := range samples {
		if s != failedSample {
			t += s
		}
	}
	return t
}

// Runtime metric names read around every timed window.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
)

// goStats is a snapshot of the Go runtime's cumulative counters.
type goStats struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
	pauses                []uint64
	buckets               []float64
}

func readGoStats() goStats {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCPauses}}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return goStats{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		pauses:     append([]uint64(nil), h.Counts...),
		buckets:    h.Buckets,
	}
}

// goDelta is what the runtime did between two snapshots.
type goDelta struct {
	allocBytes, allocObjs uint64
	gcCPUPct              float64
	pauseP99              time.Duration
	heapPeak              uint64
}

func deltaGoStats(a, b goStats, heapPeak uint64) goDelta {
	d := goDelta{
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
		heapPeak:   heapPeak,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUPct = 100 * (b.gcCPU - a.gcCPU) / cpu
	}
	counts := make([]uint64, len(b.pauses))
	var n uint64
	for i := range counts {
		counts[i] = b.pauses[i] - a.pauses[i]
		n += counts[i]
	}
	d.pauseP99 = histQuantile(counts, n, b.buckets, 0.99)
	return d
}

// histQuantile interpolates the q-quantile linearly inside the
// runtime histogram bucket that holds it. buckets has one more entry
// than counts; infinite edges are clamped to the finite neighbour.
func histQuantile(counts []uint64, n uint64, buckets []float64, q float64) time.Duration {
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			v := lo + (hi-lo)*(target-seen)/float64(c)
			return time.Duration(v * float64(time.Second))
		}
		seen += float64(c)
	}
	return 0
}

// heapSampler tracks the peak of live heap objects while a window
// runs, sampling every few milliseconds.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: mHeapLive}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}
