package cricket

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"testing"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/oncrpc"
	"cricket/internal/xdr"
)

// Tests of the inline (rpc-args) datapath: the server decodes each
// call straight from its connection's recycled record buffer, keeps one
// DtoH staging buffer per connection, and the client decodes DtoH
// payloads into the caller's buffer.

// inlineEnv is one client on a nil-clock runtime (as cricket-server
// runs) over net.Pipe, with access to the serverConn serving it.
type inlineEnv struct {
	c     *Client
	rpc   *oncrpc.Server
	conns chan *serverConn
}

func newInlineEnv(t *testing.T, opts Options) *inlineEnv {
	t.Helper()
	srv := NewServer(cuda.NewRuntime(nil, gpu.New(gpu.SpecA100)))
	e := &inlineEnv{rpc: oncrpc.NewServer(), conns: make(chan *serverConn, 1)}
	RegisterRpcCdVersConn(e.rpc, func() RpcCdVersHandler {
		sc := srv.newConn()
		select {
		case e.conns <- sc: // the first connection's handler
		default:
		}
		return sc
	})
	cli, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.rpc.ServeConn(srvConn)
	}()
	opts.Platform = guest.NativeRust()
	c, err := Connect(cli, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.c = c
	t.Cleanup(func() {
		c.Close()
		srvConn.Close()
		<-done
	})
	return e
}

// serverConn returns the connection's handler, minted at its first call.
func (e *inlineEnv) serverConn(t *testing.T) *serverConn {
	t.Helper()
	if err := e.c.Ping(); err != nil {
		t.Fatal(err)
	}
	return <-e.conns
}

// bytesPerOp reports the heap bytes the whole process allocates per op,
// averaged over n ops.
func bytesPerOp(t *testing.T, n int, op func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// A warm 1 MiB inline copy allocates next to nothing in either
// direction, client and server together: no record, decode or staging
// buffer is allocated per copy.
func TestInlineCopyAllocs(t *testing.T) {
	const n = 1 << 20
	const budget = 64 << 10
	c := newInlineEnv(t, Options{}).c
	p, err := c.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(n, 0x3C)
	dst := make([]byte, n)
	for i := 0; i < 2; i++ { // grow and settle every recycled buffer
		if err := c.MemcpyHtoD(p, data); err != nil {
			t.Fatal(err)
		}
		if err := c.MemcpyDtoHInto(p, dst); err != nil {
			t.Fatal(err)
		}
	}
	htod := bytesPerOp(t, 16, func() error { return c.MemcpyHtoD(p, data) })
	dtoh := bytesPerOp(t, 16, func() error { return c.MemcpyDtoHInto(p, dst) })
	if htod >= budget || dtoh >= budget {
		t.Fatalf("1 MiB inline copy allocates %d B (HtoD) and %d B (DtoH) per op, want under %d", htod, dtoh, budget)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("readback differs from the bytes written")
	}
}

// A 16 MiB inline DtoH stages through a buffer larger than
// oncrpc.MaxRetainedBuffer, which the connection drops once the reply
// is encoded; a 1 MiB one is kept for the next copy.
func TestInlineDtoHScratchBounded(t *testing.T) {
	e := newInlineEnv(t, Options{})
	sc := e.serverConn(t)
	c := e.c
	const big = 16 << 20
	p, err := c.Malloc(big)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(big, 0x77)
	if err := c.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, big)
	if err := c.MemcpyDtoHInto(p, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("16 MiB readback differs")
	}
	if got := cap(sc.dtoh); got > oncrpc.MaxRetainedBuffer {
		t.Fatalf("DtoH scratch keeps %d bytes after a 16 MiB copy, bound %d", got, oncrpc.MaxRetainedBuffer)
	}
	if err := c.MemcpyDtoHInto(p, dst[:1<<20]); err != nil {
		t.Fatal(err)
	}
	if got := cap(sc.dtoh); got < 1<<20 {
		t.Fatalf("DtoH scratch keeps %d bytes after a 1 MiB copy, want it kept", got)
	}
}

// Argument bytes alias the connection's recycled call record, so every
// handler must be done with them when Dispatch returns (see
// oncrpc.Dispatcher). This drives the handlers that receive bulk
// arguments — module load, kernel params, batched HtoD — through one
// record buffer, overwrites that buffer with a later copy, and checks
// that nothing the server kept changed.
func TestRecycledRecordLeavesServerStateIntact(t *testing.T) {
	c := newInlineEnv(t, Options{Batch: 8}).c
	const n = 256
	scratch, err := c.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the record buffer first, so every later call lands in it.
	if err := c.MemcpyHtoD(scratch, pattern(1<<20, 1)); err != nil {
		t.Fatal(err)
	}
	m, err := c.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ModuleGetFunction(m, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Malloc(n * 4)
	b, _ := c.Malloc(n * 4)
	out, _ := c.Malloc(n * 4)
	av, bv := make([]byte, n*4), make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(av[i*4:], math.Float32bits(float32(i)))
		binary.LittleEndian.PutUint32(bv[i*4:], math.Float32bits(float32(3*i)))
	}
	launch := func(dst gpu.Ptr) {
		t.Helper()
		args := cuda.NewArgBuffer().Ptr(a).Ptr(b).Ptr(dst).I32(n).Bytes()
		if err := c.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: n, Y: 1, Z: 1}, 0, 0, args); err != nil {
			t.Fatal(err)
		}
	}
	check := func(dst gpu.Ptr) {
		t.Helper()
		got, err := c.MemcpyDtoH(dst, n*4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if v := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:])); v != float32(4*i) {
				t.Fatalf("out[%d] = %g, want %d", i, v, 4*i)
			}
		}
	}
	// One BATCH_EXEC record: two HtoD entries and the launch.
	if err := c.MemcpyHtoDAsync(a, av, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHtoDAsync(b, bv, 0); err != nil {
		t.Fatal(err)
	}
	launch(out)
	if err := c.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the recycled record with different bytes.
	if err := c.MemcpyHtoD(scratch, pattern(1<<20, 0xEE)); err != nil {
		t.Fatal(err)
	}
	check(out)
	for _, buf := range []struct {
		p    gpu.Ptr
		want []byte
	}{{a, av}, {b, bv}} {
		got, err := c.MemcpyDtoH(buf.p, n*4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.want) {
			t.Fatal("batched HtoD bytes changed after the record was reused")
		}
	}
	// The module loaded from the old record still launches correctly.
	out2, _ := c.Malloc(n * 4)
	launch(out2)
	if err := c.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	check(out2)
}

// A BATCH_EXEC call whose 27 argument bytes declare 0x00ffffff entries
// is refused as GARBAGE_ARGS before the server allocates the entry
// array (about 1.6 GB): the generated decoder bounds the count by the
// bytes left in the record.
func TestBatchExecHugeCountRejected(t *testing.T) {
	e := newInlineEnv(t, Options{})
	e.serverConn(t) // mint the connection's handler outside the measurement
	conn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.rpc.ServeConn(srvConn)
	}()
	defer func() {
		conn.Close()
		<-done
	}()
	var rec bytes.Buffer
	enc := xdr.NewEncoder(&rec)
	hdr := oncrpc.CallHeader{XID: 7, Prog: RpcCdProg, Vers: RpcCdVers, Proc: ProcBatchExec}
	if err := hdr.MarshalXDR(enc); err != nil {
		t.Fatal(err)
	}
	args := make([]byte, 27)
	binary.BigEndian.PutUint32(args, 0x00ffffff)
	rec.Write(args)
	w, r := oncrpc.NewRecordWriter(conn), oncrpc.NewRecordReader(conn)
	var reply []byte
	call := func() error {
		if err := w.WriteRecord(rec.Bytes()); err != nil {
			return err
		}
		var err error
		reply, err = r.ReadRecordInto(reply)
		return err
	}
	if err := call(); err != nil { // warm this connection's buffers
		t.Fatal(err)
	}
	if perCall := bytesPerOp(t, 4, call); perCall >= 64<<10 {
		t.Fatalf("hostile BATCH_EXEC allocates %d B per call, want under 64 KiB", perCall)
	}
	var rh oncrpc.ReplyHeader
	if err := xdr.Unmarshal(reply, &rh); err != nil {
		t.Fatal(err)
	}
	if rh.XID != 7 || rh.Stat != oncrpc.MsgAccepted || rh.AccStat != oncrpc.GarbageArgs {
		t.Fatalf("reply %+v, want GARBAGE_ARGS", rh)
	}
}

// A DtoH reply is decoded straight into the caller's buffer and must
// carry exactly the bytes asked for; a short or long payload is an
// error, and a long one never writes past the buffer.
func TestDtoHReplyLengthChecked(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		reply, err := xdr.Marshal(&DataResult{Err: 0, Data: bytes.Repeat([]byte{0xAB}, n)})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		v := dtohInto{dst: buf[:4]}
		err = xdr.Unmarshal(reply, &v)
		if n == 4 {
			if err != nil || !bytes.Equal(buf[:4], []byte{0xAB, 0xAB, 0xAB, 0xAB}) {
				t.Fatalf("exact reply: %v, dst %x", err, buf[:4])
			}
			continue
		}
		if err == nil {
			t.Fatalf("%d-byte reply for a 4-byte read accepted", n)
		}
		if !bytes.Equal(buf[4:], make([]byte, 4)) {
			t.Fatalf("%d-byte reply wrote past the destination: %x", n, buf)
		}
	}
}
