package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
)

// A workload drives one traffic mix against a booted stack. Its inputs
// come from the seed given to its constructor; setup, run and check
// may repeat on fresh stacks.
type workload interface {
	// setup builds the client-side state on s; it is part of setup_s.
	setup(s *stack) error
	// run drives the timed window for d, stopping early after maxOps
	// ops when maxOps > 0, and records what it saw in w.
	run(d time.Duration, maxOps int, w *window)
	// check runs the output checks that are not made per op.
	check(w *window)
	// close releases the client-side state.
	close()
	// replay times the workload's call sequence directly on a bare
	// cuda.Runtime, with no RPC in between: the floor under the
	// virtualized calls.
	replay() (floor, error)
	// perSecond sizes the sample buffers: the most samples one
	// second of the window can produce.
	perSecond() int
	// part is the length of one sub-window of an end-to-end run:
	// long enough for a steady p50, short enough that a run holds
	// dozens of them (see endToEnd).
	part() time.Duration
}

// checker compares outputs against the benchmark's own expectations.
// With corrupt set, every expectation is falsified before the
// comparison, which the self-test uses to prove the checks can fail.
type checker struct{ corrupt bool }

func (k checker) equal(want, got []byte) bool {
	if k.corrupt && len(want) > 0 {
		want = append([]byte(nil), want...)
		want[len(want)/2] ^= 0x5a
	}
	return bytes.Equal(want, got)
}

func (k checker) equalU64(want, got uint64) bool {
	if k.corrupt {
		want ^= 1
	}
	return want == got
}

// builtinFatbin is the fat binary holding the builtin kernels, as a
// client application would ship it.
func builtinFatbin() []byte {
	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(80), true)
	return fb.Encode()
}

func seededBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

const (
	mixAlloc   = 64 << 10 // Malloc size in the call mix
	mixCopy    = 4 << 10  // round-trip copy size in the call mix
	mixThreads = 256      // vectorAdd elements = threads of one block
	bulkSize   = 1 << 20  // copy size of the bulk-copy workload
	poolSize   = 8        // distinct seeded payloads per workload
)

var (
	oneBlock = gpu.Dim3{X: 1, Y: 1, Z: 1}
	threads  = gpu.Dim3{X: mixThreads, Y: 1, Z: 1}
)

// callMix is the Fig 6 shape: a closed loop of small unbatched calls,
// drawn uniformly from GetDeviceCount, Malloc+Free, a vectorAdd launch
// and a verified 4 KiB round trip. Each public call is one sample.
type callMix struct {
	seed int64
	k    checker
	ops  *rand.Rand // draws the ops; continues across windows

	hostA, hostB, sum []byte // vectorAdd operands and their host sum
	pool              [][]byte

	c          *cricket.Client
	fn         cuda.Function
	dA, dB, dC gpu.Ptr
	dBuf       gpu.Ptr
	args       []byte
	readback   []byte
}

func newCallMix(seed int64, k checker) *callMix {
	rng := rand.New(rand.NewSource(seed))
	m := &callMix{seed: seed, k: k, ops: rand.New(rand.NewSource(seed + 1)), readback: make([]byte, mixCopy)}
	m.hostA, m.hostB, m.sum = make([]byte, 4*mixThreads), make([]byte, 4*mixThreads), make([]byte, 4*mixThreads)
	for i := 0; i < mixThreads; i++ {
		a, b := float32(rng.NormFloat64()), float32(rng.NormFloat64())
		binary.LittleEndian.PutUint32(m.hostA[4*i:], math.Float32bits(a))
		binary.LittleEndian.PutUint32(m.hostB[4*i:], math.Float32bits(b))
		binary.LittleEndian.PutUint32(m.sum[4*i:], math.Float32bits(a+b))
	}
	for i := 0; i < poolSize; i++ {
		m.pool = append(m.pool, seededBytes(rng, mixCopy))
	}
	return m
}

func (m *callMix) setup(s *stack) error {
	c, err := s.connect()
	if err != nil {
		return err
	}
	m.c = c
	mod, err := c.ModuleLoad(builtinFatbin())
	if err != nil {
		return err
	}
	if m.fn, err = c.ModuleGetFunction(mod, cuda.KernelVectorAdd); err != nil {
		return err
	}
	for _, p := range []*gpu.Ptr{&m.dA, &m.dB, &m.dC} {
		if *p, err = c.Malloc(4 * mixThreads); err != nil {
			return err
		}
	}
	if m.dBuf, err = c.Malloc(mixCopy); err != nil {
		return err
	}
	if err := c.MemcpyHtoD(m.dA, m.hostA); err != nil {
		return err
	}
	if err := c.MemcpyHtoD(m.dB, m.hostB); err != nil {
		return err
	}
	m.args = cuda.NewArgBuffer().Ptr(m.dA).Ptr(m.dB).Ptr(m.dC).I32(mixThreads).Bytes()
	return nil
}

func (m *callMix) run(d time.Duration, maxOps int, w *window) {
	rng := m.ops
	cl := closedLoop{w: w}
	c := m.c
	start := time.Now()
	for op := 0; (maxOps <= 0 || op < maxOps) && time.Since(start) < d; op++ {
		switch rng.Intn(4) {
		case 0:
			t0 := time.Now()
			n, err := c.GetDeviceCount()
			cl.call(t0, time.Now(), err == nil)
			if err == nil && n != 1 {
				w.mismatchf(fmt.Sprintf("GetDeviceCount = %d, want 1", n))
			}
		case 1:
			t0 := time.Now()
			p, err := c.Malloc(mixAlloc)
			cl.call(t0, time.Now(), err == nil && p != 0)
			if err != nil || p == 0 {
				w.note(err)
				continue
			}
			t0 = time.Now()
			err = c.Free(p)
			cl.call(t0, time.Now(), err == nil)
			w.note(err)
		case 2:
			t0 := time.Now()
			err := c.LaunchKernel(m.fn, oneBlock, threads, 0, 0, m.args)
			cl.call(t0, time.Now(), err == nil)
			w.note(err)
		case 3:
			buf := m.pool[rng.Intn(len(m.pool))]
			t0 := time.Now()
			err := c.MemcpyHtoD(m.dBuf, buf)
			cl.copyCall(t0, time.Now(), err == nil, len(buf), true)
			if err != nil {
				w.note(err)
				continue
			}
			t0 = time.Now()
			err = c.MemcpyDtoHInto(m.dBuf, m.readback)
			cl.copyCall(t0, time.Now(), err == nil, len(buf), false)
			w.note(err)
			if err == nil && !m.k.equal(buf, m.readback) {
				w.mismatchf("4 KiB round trip differs from the bytes written")
			}
		}
	}
	w.wall = time.Since(start)
	w.ops = len(w.calls)
}

// check compares the vectorAdd output against the host sum once.
func (m *callMix) check(w *window) {
	got := make([]byte, len(m.sum))
	if err := m.c.MemcpyDtoHInto(m.dC, got); err != nil {
		w.mismatchf(fmt.Sprintf("vectorAdd readback: %v", err))
		return
	}
	if !m.k.equal(m.sum, got) {
		w.mismatchf("vectorAdd output differs from the host sum")
	}
}

func (m *callMix) close() {
	if m.c != nil {
		m.c.Close()
		m.c = nil
	}
}

// bulkCopy is the Fig 7 shape: a closed loop alternating 1 MiB
// MemcpyHtoD and MemcpyDtoHInto of seeded data through one allocation,
// every readback verified.
type bulkCopy struct {
	seed int64
	k    checker
	ops  *rand.Rand // picks the payloads; continues across windows
	pool [][]byte

	c        *cricket.Client
	dBuf     gpu.Ptr
	readback []byte
}

func newBulkCopy(seed int64, k checker) *bulkCopy {
	rng := rand.New(rand.NewSource(seed))
	b := &bulkCopy{seed: seed, k: k, ops: rand.New(rand.NewSource(seed + 1)), readback: make([]byte, bulkSize)}
	for i := 0; i < poolSize; i++ {
		b.pool = append(b.pool, seededBytes(rng, bulkSize))
	}
	return b
}

func (b *bulkCopy) setup(s *stack) error {
	c, err := s.connect()
	if err != nil {
		return err
	}
	b.c = c
	b.dBuf, err = c.Malloc(bulkSize)
	return err
}

func (b *bulkCopy) run(d time.Duration, maxOps int, w *window) {
	rng := b.ops
	cl := closedLoop{w: w}
	start := time.Now()
	for op := 0; (maxOps <= 0 || op < maxOps) && time.Since(start) < d; op += 2 {
		buf := b.pool[rng.Intn(len(b.pool))]
		t0 := time.Now()
		err := b.c.MemcpyHtoD(b.dBuf, buf)
		cl.copyCall(t0, time.Now(), err == nil, len(buf), true)
		if err != nil {
			w.note(err)
			continue
		}
		t0 = time.Now()
		err = b.c.MemcpyDtoHInto(b.dBuf, b.readback)
		cl.copyCall(t0, time.Now(), err == nil, len(buf), false)
		w.note(err)
		if err == nil && !b.k.equal(buf, b.readback) {
			w.mismatchf("1 MiB readback differs from the bytes written")
		}
	}
	w.wall = time.Since(start)
	w.ops = len(w.copies)
}

func (b *bulkCopy) check(*window) {}

func (b *bulkCopy) close() {
	if b.c != nil {
		b.c.Close()
		b.c = nil
	}
}

func (m *callMix) perSecond() int  { return 50000 }
func (b *bulkCopy) perSecond() int { return 4000 }

func (m *callMix) part() time.Duration  { return 100 * time.Millisecond }
func (b *bulkCopy) part() time.Duration { return 500 * time.Millisecond }
