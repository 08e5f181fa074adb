package cricket

import (
	"fmt"
	"sync"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
)

// This file is the server's resource-governance layer: client leases
// with orphan reclamation, admission control, and load shedding.
//
// Every connection serves the Cricket program through its own
// serverConn (minted by Attach's per-connection registration). A
// client attaches with a session nonce (SRV_ATTACH) and receives a
// lease; every handle it creates — allocations, modules (and, through
// them, functions and globals), streams, events — is tagged with that
// lease. The lease expires after Limits.LeaseTTL without traffic or an
// explicit SRV_RENEW heartbeat; the sweeper then frees every orphaned
// device resource and detaches the client from the scheduler, so a
// peer that was killed or partitioned cannot pin GPU memory forever.
// Reconnecting with the same nonce inside the TTL re-binds the
// existing lease (handles stay live); after expiry the client gets a
// fresh lease and replays.
//
// Admission control bounds concurrent clients (MaxClients, applied at
// attach), per-client device memory (MaxClientMem, applied at malloc
// and reflected by the quota-clamped CudaMemGetInfo view), and
// concurrent in-flight calls (MaxInflight, applied per call). Shed
// calls fail in-band with cuda.ErrorServerOverloaded and carry an
// AUTH_RETRY reply-verifier hint, so a backoff-respecting client
// degrades to queueing instead of failing.

// Limits configures server-side resource governance. The zero value
// disables everything: no lease expiry, no admission control.
type Limits struct {
	// LeaseTTL is how long a lease survives without traffic or an
	// explicit renew. Zero means leases never expire: a disconnected
	// client's resources persist until it reconnects (re-binding the
	// lease by nonce) or detaches explicitly — exactly the ungoverned
	// behavior older servers had.
	LeaseTTL time.Duration
	// MaxClients caps concurrently leased clients; zero is unlimited.
	MaxClients int
	// MaxClientMem caps one client's device-memory bytes; zero is
	// unlimited. Exceeding it fails the allocation with
	// cudaErrorMemoryAllocation (retrying cannot help), and
	// CudaMemGetInfo reports the quota-clamped view.
	MaxClientMem uint64
	// MaxInflight caps concurrently executing calls across all
	// clients; zero is unlimited. Over-limit calls are shed with
	// cuda.ErrorServerOverloaded plus a RetryAfter hint.
	MaxInflight int
	// RetryAfter is the backpressure hint stamped on shed replies.
	// Zero selects a default (50ms).
	RetryAfter time.Duration
}

const defaultRetryAfter = 50 * time.Millisecond

// overloadCode is the in-band status for shed calls.
const overloadCode = int32(cuda.ErrorServerOverloaded)

// SetLimits installs resource-governance limits. Safe to call while
// serving; existing leases adopt the new TTL at their next touch.
func (s *Server) SetLimits(l Limits) {
	s.mu.Lock()
	s.limits = l
	s.mu.Unlock()
}

// Limits returns the current resource-governance limits.
func (s *Server) Limits() Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limits
}

// LeaseCount reports the number of live leases.
func (s *Server) LeaseCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// lease is one client's server-side resource registry. All fields are
// guarded by Server.mu.
type lease struct {
	id       uint64
	nonce    uint64
	schedID  string
	deadline time.Time // zero when LeaseTTL is zero
	owner    *serverConn
	dead     bool

	mem     uint64 // bytes currently allocated (quota accounting)
	allocs  map[gpu.Ptr]uint64
	modules map[cuda.Module]struct{}
	streams map[cuda.Stream]struct{}
	events  map[cuda.Event]struct{}
}

// newConn mints the per-connection handler Attach registers with the
// RPC server.
func (s *Server) newConn() *serverConn { return &serverConn{s: s} }

// serverConn serves one connection: it forwards every procedure to the
// shared Server, adding lease bookkeeping and admission control.
// Fields are only touched from the connection's serving goroutine
// (Dispatch, ReplyVerf, and ConnEnd are never concurrent for one
// connection) or under Server.mu where noted.
type serverConn struct {
	s    *Server
	ls   *lease        // nil until SRV_ATTACH
	shed time.Duration // pending AUTH_RETRY hint; consumed by ReplyVerf
	// dtoh is the connection's DtoH staging buffer. The reply encoder
	// copies a payload out of it before Dispatch returns, so one
	// buffer, bounded by oncrpc.MaxRetainedBuffer, serves every read.
	dtoh []byte
}

// ReplyVerf stamps the retry-after hint on the reply of a shed call
// (oncrpc.ReplyVerfer).
func (sc *serverConn) ReplyVerf() oncrpc.OpaqueAuth {
	if sc.shed <= 0 {
		return oncrpc.OpaqueAuth{}
	}
	h := oncrpc.NewRetryAuth(sc.shed)
	sc.shed = 0
	return h
}

// ConnEnd releases the connection's scheduler slot and starts the
// lease's expiry clock (oncrpc.ConnEnder). With no TTL configured the
// lease keeps its handles indefinitely — a reconnecting session
// re-binds it by nonce, matching ungoverned-server behavior.
func (sc *serverConn) ConnEnd() {
	s := sc.s
	s.mu.Lock()
	ls := sc.ls
	if ls == nil || ls.dead || ls.owner != sc {
		s.mu.Unlock()
		return
	}
	s.sched.Detach(ls.schedID)
	ls.owner = nil
	if s.limits.LeaseTTL > 0 {
		ls.deadline = s.clock().Add(s.limits.LeaseTTL)
	}
	s.mu.Unlock()
}

// begin admits one call: it enforces MaxInflight and touches the
// connection's lease (extending its deadline; a lease the sweeper
// already reclaimed is transparently re-attached under the same nonce,
// with admission applied — its old handles are gone either way). It
// returns false when the call is shed; the caller then returns the
// in-band overload code without executing anything.
func (sc *serverConn) begin() bool {
	s := sc.s
	s.mu.Lock()
	if s.parked {
		// A parked server has checkpointed and scaled to zero; it sheds
		// everything until woken, and the retry hint tells the client
		// the wake is worth waiting for.
		sc.shedLocked()
		s.mu.Unlock()
		return false
	}
	if s.limits.MaxInflight > 0 && s.inflight >= s.limits.MaxInflight {
		sc.shedLocked()
		s.mu.Unlock()
		return false
	}
	if ls := sc.ls; ls != nil {
		if ls.dead {
			nls, _, err := s.attachLocked(ls.nonce, sc)
			if err != nil {
				sc.shedLocked()
				s.mu.Unlock()
				return false
			}
			sc.ls = nls
		} else if s.limits.LeaseTTL > 0 {
			ls.deadline = s.clock().Add(s.limits.LeaseTTL)
		}
	}
	s.inflight++
	s.mu.Unlock()
	// The exec model (benchmarks' stand-in for device execution) runs
	// outside the lock so modeled service time serializes on the
	// model's own capacity, not on Server.mu — and only for admitted
	// calls, so sheds stay as cheap as real rejects must be.
	if f := s.execModel.Load(); f != nil {
		(*f)()
	}
	return true
}

func (sc *serverConn) end() {
	s := sc.s
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// shedLocked counts one shed call and arms the reply's retry hint.
// Called with Server.mu held.
func (sc *serverConn) shedLocked() {
	s := sc.s
	s.stats.CallsShed++
	sc.shed = s.limits.RetryAfter
	if sc.shed <= 0 {
		sc.shed = defaultRetryAfter
	}
}

// attachLocked grants (or re-binds) a lease for nonce, transferring
// ownership to sc. Called with Server.mu held.
func (s *Server) attachLocked(nonce uint64, sc *serverConn) (*lease, bool, error) {
	if nonce != 0 {
		if ls, ok := s.leaseByNonce[nonce]; ok && !ls.dead {
			// Re-bind: the previous connection (if any) no longer owns
			// the lease; its ConnEnd must not tear it down.
			if ls.owner != nil && ls.owner != sc {
				s.sched.Detach(ls.schedID)
			}
			ls.owner = sc
			if s.limits.LeaseTTL > 0 {
				ls.deadline = s.clock().Add(s.limits.LeaseTTL)
			}
			if err := s.sched.Attach(ls.schedID); err != nil && err != ErrTooManyClients {
				// Already attached (same connection re-attaching): fine.
				_ = err
			}
			return ls, false, nil
		}
	}
	if s.limits.MaxClients > 0 && len(s.leases) >= s.limits.MaxClients {
		return nil, false, ErrTooManyClients
	}
	s.leaseSeq++
	ls := &lease{
		id:      s.leaseSeq,
		nonce:   nonce,
		allocs:  make(map[gpu.Ptr]uint64),
		modules: make(map[cuda.Module]struct{}),
		streams: make(map[cuda.Stream]struct{}),
		events:  make(map[cuda.Event]struct{}),
		owner:   sc,
	}
	if nonce != 0 {
		ls.schedID = fmt.Sprintf("lease-%016x", nonce)
		s.leaseByNonce[nonce] = ls
	} else {
		ls.schedID = fmt.Sprintf("lease-anon-%d", ls.id)
	}
	if s.limits.LeaseTTL > 0 {
		ls.deadline = s.clock().Add(s.limits.LeaseTTL)
	}
	s.leases[ls.id] = ls
	if err := s.sched.Attach(ls.schedID); err != nil && err != ErrTooManyClients {
		_ = err // duplicate id from a nonce collision: keep serving
	}
	s.stats.LeasesGranted++
	return ls, true, nil
}

// releaseLocked reclaims every resource a lease still holds — device
// allocations, modules (which free their globals and drop their
// function handles), streams, and events — detaches its scheduler
// slot, and removes it from the registries. It returns the reclaimed
// byte count and handle count; expired selects the LeasesExpired
// counter (sweeper path) over plain release (explicit detach).
// Called with Server.mu held; the runtime has its own lock and is a
// leaf, so calling it here cannot deadlock.
func (s *Server) releaseLocked(ls *lease, expired bool) (uint64, uint64) {
	var bytes, handles uint64
	for m := range ls.modules {
		if _, err := s.rt.ModuleUnload(m); err == nil {
			handles++
		}
	}
	for p := range ls.allocs {
		if s.freeAnyDevice(p) {
			bytes += ls.allocs[p]
			handles++
		}
	}
	for h := range ls.streams {
		if _, err := s.rt.StreamDestroy(h); err == nil {
			handles++
		}
	}
	for ev := range ls.events {
		if _, err := s.rt.EventDestroy(ev); err == nil {
			handles++
		}
	}
	s.sched.Detach(ls.schedID)
	ls.dead = true
	ls.mem = 0
	delete(s.leases, ls.id)
	if ls.nonce != 0 && s.leaseByNonce[ls.nonce] == ls {
		delete(s.leaseByNonce, ls.nonce)
	}
	if expired {
		s.stats.LeasesExpired++
	}
	s.stats.ReclaimedBytes += bytes
	s.stats.ReclaimedHandles += handles
	return bytes, handles
}

// freeAnyDevice frees p on whichever device owns it. The runtime's
// Free operates on the *current* device, which another client may have
// switched since the allocation, so reclamation scans the devices
// directly.
func (s *Server) freeAnyDevice(p gpu.Ptr) bool {
	for i := 0; ; i++ {
		dev, err := s.rt.Device(i)
		if err != nil {
			return false
		}
		if _, err := dev.Free(p); err == nil {
			return true
		}
	}
}

// observeReclaim records a reclamation span under the ProcLease
// pseudo-procedure when observability is on.
func (s *Server) observeReclaim(bytes, handles uint64) {
	if bytes == 0 && handles == 0 {
		return
	}
	col := s.collector.Load()
	if col == nil {
		return
	}
	col.RecordSpan(obs.Span{
		Entry: -1, Proc: ProcLease, Side: obs.SideServer,
		Stage: obs.StageRuntime, Start: col.Now(),
		Sim: int64(bytes), Err: int32(handles),
	})
}

// SweepLeases expires every lease whose deadline has passed, freeing
// its orphaned resources. It returns the number of leases reclaimed.
// A no-op when Limits.LeaseTTL is zero.
func (s *Server) SweepLeases() int {
	s.mu.Lock()
	if s.limits.LeaseTTL <= 0 {
		s.mu.Unlock()
		return 0
	}
	now := s.clock()
	var n int
	var bytes, handles uint64
	for _, ls := range s.leases {
		if !ls.deadline.IsZero() && now.After(ls.deadline) {
			rb, rh := s.releaseLocked(ls, true)
			bytes += rb
			handles += rh
			n++
		}
	}
	s.mu.Unlock()
	if n > 0 {
		s.observeReclaim(bytes, handles)
		if s.ErrorLog != nil {
			s.ErrorLog.Printf("cricket: lease sweep reclaimed %d lease(s), %d bytes, %d handle(s)", n, bytes, handles)
		}
	}
	return n
}

// StartLeaseSweeper runs SweepLeases every interval until the returned
// stop function is called. interval <= 0 selects LeaseTTL/4 (bounded
// below by 10ms), falling back to one second when no TTL is set yet.
func (s *Server) StartLeaseSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		if ttl := s.Limits().LeaseTTL; ttl > 0 {
			interval = ttl / 4
			if interval < 10*time.Millisecond {
				interval = 10 * time.Millisecond
			}
		} else {
			interval = time.Second
		}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SweepLeases()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// tagAlloc records a successful allocation against the connection's
// lease. Quota was reserved by chargeMem before the allocation ran.
func (sc *serverConn) tagAlloc(p gpu.Ptr, size uint64) {
	s := sc.s
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		sc.ls.allocs[p] = size
	}
	s.mu.Unlock()
}

// chargeMem reserves size bytes against the lease's memory quota,
// returning false when the quota would be exceeded. Leaseless
// connections and a zero quota always pass.
func (sc *serverConn) chargeMem(size uint64) bool {
	s := sc.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc.ls == nil || sc.ls.dead {
		return true
	}
	if q := s.limits.MaxClientMem; q > 0 && sc.ls.mem+size > q {
		return false
	}
	sc.ls.mem += size
	return true
}

// refundMem undoes a chargeMem reservation after a failed allocation.
func (sc *serverConn) refundMem(size uint64) {
	s := sc.s
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead && sc.ls.mem >= size {
		sc.ls.mem -= size
	}
	s.mu.Unlock()
}

// untagAlloc drops a freed allocation from the lease.
func (sc *serverConn) untagAlloc(p gpu.Ptr) {
	s := sc.s
	s.mu.Lock()
	if ls := sc.ls; ls != nil && !ls.dead {
		if size, ok := ls.allocs[p]; ok {
			delete(ls.allocs, p)
			if ls.mem >= size {
				ls.mem -= size
			}
		}
	}
	s.mu.Unlock()
}

// tagModule / tagStream / tagEvent record created handles; the untag
// variants drop explicitly destroyed ones.
func (sc *serverConn) tagModule(m cuda.Module) {
	s := sc.s
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		sc.ls.modules[m] = struct{}{}
	}
	s.mu.Unlock()
}

func (sc *serverConn) untagModule(m cuda.Module) {
	s := sc.s
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		delete(sc.ls.modules, m)
	}
	s.mu.Unlock()
}

func (sc *serverConn) tagStream(h cuda.Stream) {
	s := sc.s
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		sc.ls.streams[h] = struct{}{}
	}
	s.mu.Unlock()
}

func (sc *serverConn) untagStream(h cuda.Stream) {
	s := sc.s
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		delete(sc.ls.streams, h)
	}
	s.mu.Unlock()
}

func (sc *serverConn) tagEvent(ev cuda.Event) {
	s := sc.s
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		sc.ls.events[ev] = struct{}{}
	}
	s.mu.Unlock()
}

func (sc *serverConn) untagEvent(ev cuda.Event) {
	s := sc.s
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		delete(sc.ls.events, ev)
	}
	s.mu.Unlock()
}

// ---- RpcCdVersHandler: lease procedures ----

// SrvAttach grants (or re-binds) a lease for the client's session
// nonce. Over MaxClients the attach itself is shed: the client backs
// off on the RetryAfter hint and re-attaches.
func (sc *serverConn) SrvAttach(a AttachArgs) (LeaseResult, error) {
	s := sc.s
	s.count(func(st *ServerStats) { st.Calls++ })
	s.mu.Lock()
	ls, fresh, err := s.attachLocked(a.Nonce, sc)
	if err != nil {
		sc.shedLocked()
		s.mu.Unlock()
		return LeaseResult{Err: overloadCode}, nil
	}
	sc.ls = ls
	info := LeaseInfo{
		LeaseId:  ls.id,
		TtlMs:    uint64(s.limits.LeaseTTL / time.Millisecond),
		MemLimit: s.limits.MaxClientMem,
	}
	if fresh {
		info.Fresh = 1
	}
	s.mu.Unlock()
	return LeaseResult{Err: 0, Info: info}, nil
}

// SrvRenew is the explicit lease heartbeat. begin already extended the
// deadline (and resurrected a swept lease); a connection that never
// attached has nothing to renew.
func (sc *serverConn) SrvRenew() (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	sc.s.count(func(st *ServerStats) { st.Calls++ })
	if sc.ls == nil {
		return int32(cuda.ErrorInvalidValue), nil
	}
	return 0, nil
}

// SrvDetach releases the lease and every resource it holds,
// immediately.
func (sc *serverConn) SrvDetach() (int32, error) {
	s := sc.s
	s.count(func(st *ServerStats) { st.Calls++ })
	s.mu.Lock()
	var rb, rh uint64
	if sc.ls != nil && !sc.ls.dead {
		rb, rh = s.releaseLocked(sc.ls, false)
	}
	sc.ls = nil
	s.mu.Unlock()
	s.observeReclaim(rb, rh)
	return 0, nil
}

// ---- RpcCdVersHandler: governed forwards to the shared Server ----

func (sc *serverConn) RpcNull() error {
	if !sc.begin() {
		return nil // nothing in-band to carry the shed code; ping is free
	}
	defer sc.end()
	return sc.s.RpcNull()
}

func (sc *serverConn) CudaGetDeviceCount() (IntResult, error) {
	if !sc.begin() {
		return IntResult{Err: overloadCode}, nil
	}
	defer sc.end()
	return sc.s.CudaGetDeviceCount()
}

func (sc *serverConn) CudaGetDeviceProperties(dev int32) (PropResult, error) {
	if !sc.begin() {
		return PropResult{Err: overloadCode}, nil
	}
	defer sc.end()
	return sc.s.CudaGetDeviceProperties(dev)
}

func (sc *serverConn) CudaSetDevice(dev int32) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CudaSetDevice(dev)
}

func (sc *serverConn) CudaGetDevice() (IntResult, error) {
	if !sc.begin() {
		return IntResult{Err: overloadCode}, nil
	}
	defer sc.end()
	return sc.s.CudaGetDevice()
}

// CudaMalloc enforces the per-client memory quota, then tags the
// allocation with the lease so the sweeper can find it.
func (sc *serverConn) CudaMalloc(size uint64) (PtrResult, error) {
	if !sc.begin() {
		return PtrResult{Err: overloadCode}, nil
	}
	defer sc.end()
	if !sc.chargeMem(size) {
		// Quota exhaustion is an allocation failure, not overload:
		// retrying cannot help, and it matches the clamped MemGetInfo
		// view the client already sees.
		sc.s.count(func(st *ServerStats) { st.Calls++ })
		return PtrResult{Err: int32(cuda.ErrorMemoryAllocation)}, nil
	}
	r, err := sc.s.CudaMalloc(size)
	if err != nil || r.Err != 0 {
		sc.refundMem(size)
		return r, err
	}
	sc.tagAlloc(gpu.Ptr(r.Ptr), size)
	return r, err
}

func (sc *serverConn) CudaFree(ptr uint64) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	code, err := sc.s.CudaFree(ptr)
	if err == nil && code == 0 {
		sc.untagAlloc(gpu.Ptr(ptr))
	}
	return code, err
}

func (sc *serverConn) CudaMemcpyHtod(dst uint64, data MemData) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CudaMemcpyHtod(dst, data)
}

func (sc *serverConn) CudaMemcpyDtoh(src uint64, n uint64) (DataResult, error) {
	if !sc.begin() {
		return DataResult{Err: overloadCode}, nil
	}
	defer sc.end()
	r, err := sc.s.memcpyDtoh(src, n, sc.dtoh)
	if c := cap(r.Data); c > cap(sc.dtoh) && c <= oncrpc.MaxRetainedBuffer {
		sc.dtoh = r.Data[:0]
	}
	return r, err
}

func (sc *serverConn) CudaMemcpyDtod(dst, src, n uint64) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CudaMemcpyDtod(dst, src, n)
}

func (sc *serverConn) CudaMemset(ptr uint64, value uint32, n uint64) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CudaMemset(ptr, value, n)
}

// CudaMemGetInfo reports the quota-clamped view: a client with a
// memory cap sees its cap as the device total and its unreserved
// quota as free, so well-behaved allocators self-limit.
func (sc *serverConn) CudaMemGetInfo() (MemInfoResult, error) {
	if !sc.begin() {
		return MemInfoResult{Err: overloadCode}, nil
	}
	defer sc.end()
	r, err := sc.s.CudaMemGetInfo()
	if err != nil || r.Err != 0 {
		return r, err
	}
	s := sc.s
	s.mu.Lock()
	if q := s.limits.MaxClientMem; q > 0 && sc.ls != nil && !sc.ls.dead {
		used := sc.ls.mem
		if r.Info.TotalMem > q {
			r.Info.TotalMem = q
		}
		rem := uint64(0)
		if q > used {
			rem = q - used
		}
		if r.Info.FreeMem > rem {
			r.Info.FreeMem = rem
		}
	}
	s.mu.Unlock()
	return r, err
}

func (sc *serverConn) CudaDeviceSynchronize() (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CudaDeviceSynchronize()
}

func (sc *serverConn) CudaDeviceReset() (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CudaDeviceReset()
}

func (sc *serverConn) CudaStreamCreate() (HandleResult, error) {
	if !sc.begin() {
		return HandleResult{Err: overloadCode}, nil
	}
	defer sc.end()
	r, err := sc.s.CudaStreamCreate()
	if err == nil && r.Err == 0 {
		sc.tagStream(cuda.Stream(r.Handle))
	}
	return r, err
}

func (sc *serverConn) CudaStreamDestroy(h uint64) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	code, err := sc.s.CudaStreamDestroy(h)
	if err == nil && code == 0 {
		sc.untagStream(cuda.Stream(h))
	}
	return code, err
}

func (sc *serverConn) CudaStreamSynchronize(h uint64) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CudaStreamSynchronize(h)
}

func (sc *serverConn) CudaEventCreate() (HandleResult, error) {
	if !sc.begin() {
		return HandleResult{Err: overloadCode}, nil
	}
	defer sc.end()
	r, err := sc.s.CudaEventCreate()
	if err == nil && r.Err == 0 {
		sc.tagEvent(cuda.Event(r.Handle))
	}
	return r, err
}

func (sc *serverConn) CudaEventRecord(ev, stream uint64) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CudaEventRecord(ev, stream)
}

func (sc *serverConn) CudaEventElapsed(start, end uint64) (FloatResult, error) {
	if !sc.begin() {
		return FloatResult{Err: overloadCode}, nil
	}
	defer sc.end()
	return sc.s.CudaEventElapsed(start, end)
}

func (sc *serverConn) CudaEventDestroy(ev uint64) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	code, err := sc.s.CudaEventDestroy(ev)
	if err == nil && code == 0 {
		sc.untagEvent(cuda.Event(ev))
	}
	return code, err
}

// CuModuleLoad tags the module; its functions and globals are owned by
// the module and reclaimed with it (ModuleUnload frees globals and
// drops function handles), so they need no tags of their own.
func (sc *serverConn) CuModuleLoad(image MemData) (HandleResult, error) {
	if !sc.begin() {
		return HandleResult{Err: overloadCode}, nil
	}
	defer sc.end()
	r, err := sc.s.CuModuleLoad(image)
	if err == nil && r.Err == 0 {
		sc.tagModule(cuda.Module(r.Handle))
	}
	return r, err
}

func (sc *serverConn) CuModuleUnload(m uint64) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	code, err := sc.s.CuModuleUnload(m)
	if err == nil && code == 0 {
		sc.untagModule(cuda.Module(m))
	}
	return code, err
}

func (sc *serverConn) CuModuleGetFunction(m uint64, name string) (HandleResult, error) {
	if !sc.begin() {
		return HandleResult{Err: overloadCode}, nil
	}
	defer sc.end()
	return sc.s.CuModuleGetFunction(m, name)
}

func (sc *serverConn) CuModuleGetGlobal(m uint64, name string) (GlobalResult, error) {
	if !sc.begin() {
		return GlobalResult{Err: overloadCode}, nil
	}
	defer sc.end()
	return sc.s.CuModuleGetGlobal(m, name)
}

func (sc *serverConn) CuLaunchKernel(a LaunchArgs) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CuLaunchKernel(a)
}

func (sc *serverConn) CkpCheckpoint() (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CkpCheckpoint()
}

func (sc *serverConn) CkpRestore() (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.CkpRestore()
}

func (sc *serverConn) MtSetTransfer(method, sockets int32) (int32, error) {
	if !sc.begin() {
		return overloadCode, nil
	}
	defer sc.end()
	return sc.s.MtSetTransfer(method, sockets)
}

func (sc *serverConn) SrvGetEpoch() (uint64, error) {
	// Epoch discovery is part of reconnect; it is never shed (a
	// recovering client must always be able to learn the epoch) and
	// does not touch the lease.
	return sc.s.SrvGetEpoch()
}

// BatchExec is shed all-or-nothing: either every entry runs or none
// did (every status is the overload code), so a client can safely
// retry the whole batch after backing off.
func (sc *serverConn) BatchExec(a BatchArgs) (BatchResult, error) {
	if !sc.begin() {
		status := make([]int32, len(a.Entries))
		for i := range status {
			status[i] = overloadCode
		}
		return BatchResult{Status: status}, nil
	}
	defer sc.end()
	return sc.s.BatchExec(a)
}
