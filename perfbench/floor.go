package main

import (
	"fmt"
	"math/rand"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
)

// A floor is the cost of a workload's calls made directly on a fresh
// cuda.Runtime with no RPC: the mean wall time per public call and
// per kernel launch.
type floor struct {
	call, kernel time.Duration
}

// floorTimer accumulates replayed call times.
type floorTimer struct {
	calls, kernels     int
	callSum, kernelSum time.Duration
}

func (f *floorTimer) add(t0 time.Time, kernel bool, err error) error {
	d := time.Since(t0)
	f.calls++
	f.callSum += d
	if kernel {
		f.kernels++
		f.kernelSum += d
	}
	return err
}

func (f *floorTimer) floor() floor {
	var fl floor
	if f.calls > 0 {
		fl.call = f.callSum / time.Duration(f.calls)
	}
	if f.kernels > 0 {
		fl.kernel = f.kernelSum / time.Duration(f.kernels)
	}
	return fl
}

// Replays run long enough for a stable mean but stay a small part of
// a traced invocation.
const (
	replayCalls  = 20000
	replayCopies = 400
	replayRounds = 4000
)

// bareRuntime returns a fresh runtime like the server's with the
// builtin module loaded.
func bareRuntime() (*cuda.Runtime, cuda.Module, error) {
	rt := cuda.NewRuntime(nil, gpu.New(gpu.SpecA100))
	mod, _, err := rt.ModuleLoad(builtinFatbin())
	return rt, mod, err
}

func (m *callMix) replay() (floor, error) {
	rt, mod, err := bareRuntime()
	if err != nil {
		return floor{}, err
	}
	fn, _, err := rt.ModuleGetFunction(mod, cuda.KernelVectorAdd)
	if err != nil {
		return floor{}, err
	}
	var ptrs [4]gpu.Ptr
	for i, n := range []uint64{4 * mixThreads, 4 * mixThreads, 4 * mixThreads, mixCopy} {
		if ptrs[i], _, err = rt.Malloc(n); err != nil {
			return floor{}, err
		}
	}
	args := cuda.NewArgBuffer().Ptr(ptrs[0]).Ptr(ptrs[1]).Ptr(ptrs[2]).I32(mixThreads).Bytes()
	rng := rand.New(rand.NewSource(m.seed + 1)) // the workload's op mix
	var ft floorTimer
	for ft.calls < replayCalls && err == nil {
		t0 := time.Now()
		switch rng.Intn(4) {
		case 0:
			_, _, e := rt.GetDeviceCount()
			err = ft.add(t0, false, e)
		case 1:
			p, _, e := rt.Malloc(mixAlloc)
			if err = ft.add(t0, false, e); err == nil {
				t0 = time.Now()
				_, e = rt.Free(p)
				err = ft.add(t0, false, e)
			}
		case 2:
			_, e := rt.LaunchKernel(fn, oneBlock, threads, 0, 0, args)
			err = ft.add(t0, true, e)
		case 3:
			buf := m.pool[rng.Intn(len(m.pool))]
			_, e := rt.MemcpyHtoD(ptrs[3], buf)
			if err = ft.add(t0, false, e); err == nil {
				t0 = time.Now()
				_, e = rt.MemcpyDtoHInto(ptrs[3], m.readback)
				err = ft.add(t0, false, e)
			}
		}
	}
	return ft.floor(), err
}

func (b *bulkCopy) replay() (floor, error) {
	rt, mod, err := bareRuntime()
	if err != nil {
		return floor{}, err
	}
	p, _, err := rt.Malloc(bulkSize)
	if err != nil {
		return floor{}, err
	}
	rng := rand.New(rand.NewSource(b.seed + 1))
	var ft floorTimer
	for i := 0; i < replayCopies && err == nil; i += 2 {
		buf := b.pool[rng.Intn(len(b.pool))]
		t0 := time.Now()
		_, e := rt.MemcpyHtoD(p, buf)
		if err = ft.add(t0, false, e); err == nil {
			t0 = time.Now()
			_, e = rt.MemcpyDtoHInto(p, b.readback)
			err = ft.add(t0, false, e)
		}
	}
	if err != nil {
		return floor{}, err
	}
	// The workload launches no kernel; report what the vectorAdd
	// launch of the call mix costs, so the floor is never empty.
	k, err := launchFloor(rt, mod)
	fl := ft.floor()
	fl.kernel = k
	return fl, err
}

// launchFloor times the call mix's vectorAdd launch on rt.
func launchFloor(rt *cuda.Runtime, mod cuda.Module) (time.Duration, error) {
	fn, _, err := rt.ModuleGetFunction(mod, cuda.KernelVectorAdd)
	if err != nil {
		return 0, err
	}
	var ptrs [3]gpu.Ptr
	for i := range ptrs {
		if ptrs[i], _, err = rt.Malloc(4 * mixThreads); err != nil {
			return 0, err
		}
	}
	args := cuda.NewArgBuffer().Ptr(ptrs[0]).Ptr(ptrs[1]).Ptr(ptrs[2]).I32(mixThreads).Bytes()
	var ft floorTimer
	for i := 0; i < replayCalls/4 && err == nil; i++ {
		t0 := time.Now()
		_, e := rt.LaunchKernel(fn, oneBlock, threads, 0, 0, args)
		err = ft.add(t0, true, e)
	}
	return ft.floor().kernel, err
}

// replay runs the engine's round shape on a bare runtime: per round
// one SetDevice, a prompt upload plus prefillAttention launch for each
// newly admitted request or one decodeStep launch for each running
// one, an EventRecord, a StreamSynchronize and the state readback,
// with every slot kept busy by the workload's requests in order.
func (sd *serveDecode) replay() (floor, error) {
	rt, mod, err := bareRuntime()
	if err != nil {
		return floor{}, err
	}
	prefill, _, err := rt.ModuleGetFunction(mod, cuda.KernelPrefill)
	if err != nil {
		return floor{}, err
	}
	decode, _, err := rt.ModuleGetFunction(mod, cuda.KernelDecodeStep)
	if err != nil {
		return floor{}, err
	}
	const kv, promptCap = 2048, 512 // serve.Config defaults
	var weights, states, kvs, prompts gpu.Ptr
	for _, a := range []struct {
		p *gpu.Ptr
		n uint64
	}{{&weights, 4 * serveWordsDef}, {&states, 8 * serveSlots}, {&kvs, kv * serveSlots}, {&prompts, promptCap * serveSlots}} {
		if *a.p, _, err = rt.Malloc(a.n); err != nil {
			return floor{}, err
		}
	}
	wb := make([]byte, 4*serveWordsDef)
	for i, v := range sd.weights {
		wb[4*i], wb[4*i+1], wb[4*i+2], wb[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	if _, err := rt.MemcpyHtoD(weights, wb); err != nil {
		return floor{}, err
	}
	st, _, err := rt.StreamCreate()
	if err != nil {
		return floor{}, err
	}
	ev, _, err := rt.EventCreate()
	if err != nil {
		return floor{}, err
	}
	if len(sd.reqs) == 0 {
		return floor{}, fmt.Errorf("serve replay: no requests scheduled")
	}
	type slot struct{ req, step int }
	slots := make([]slot, serveSlots)
	next := 0
	for i := range slots {
		slots[i] = slot{req: next % len(sd.reqs), step: -1}
		next++
	}
	stateBuf := make([]byte, 8*serveSlots)
	var ft floorTimer
	for round := 0; round < replayRounds && err == nil; round++ {
		t0 := time.Now()
		_, e := rt.SetDevice(0)
		err = ft.add(t0, false, e)
		for i := range slots {
			if err != nil {
				break
			}
			sl := &slots[i]
			r := &sd.reqs[sl.req]
			statePtr, kvPtr := states+gpu.Ptr(8*i), kvs+gpu.Ptr(kv*i)
			if sl.step < 0 {
				promptPtr := prompts + gpu.Ptr(promptCap*i)
				t0 = time.Now()
				_, e = rt.MemcpyHtoD(promptPtr, r.prompt)
				if err = ft.add(t0, false, e); err != nil {
					break
				}
				args := cuda.NewArgBuffer().Ptr(statePtr).Ptr(kvPtr).Ptr(promptPtr).Ptr(weights).
					I32(int32(len(r.prompt))).I32(kv).I32(serveWordsDef).Bytes()
				t0 = time.Now()
				_, e = rt.LaunchKernel(prefill, oneBlock, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0, st, args)
				err = ft.add(t0, true, e)
				sl.step = 0
				continue
			}
			args := cuda.NewArgBuffer().Ptr(statePtr).Ptr(kvPtr).Ptr(weights).
				I32(int32(sl.step)).U64(uint64(sl.step)).I32(kv).I32(serveWordsDef).Bytes()
			t0 = time.Now()
			_, e = rt.LaunchKernel(decode, oneBlock, gpu.Dim3{X: 32, Y: 1, Z: 1}, 0, st, args)
			err = ft.add(t0, true, e)
			if sl.step++; sl.step >= r.maxTok {
				*sl = slot{req: next % len(sd.reqs), step: -1}
				next++
			}
		}
		if err != nil {
			break
		}
		t0 = time.Now()
		_, e = rt.EventRecord(ev, st)
		if err = ft.add(t0, false, e); err != nil {
			break
		}
		t0 = time.Now()
		_, e = rt.StreamSynchronize(st)
		if err = ft.add(t0, false, e); err != nil {
			break
		}
		t0 = time.Now()
		_, e = rt.MemcpyDtoHInto(states, stateBuf)
		err = ft.add(t0, false, e)
	}
	return ft.floor(), err
}
