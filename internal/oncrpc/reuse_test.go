package oncrpc

import (
	"bytes"
	"net"
	"slices"
	"testing"
)

// newServedPair is newTestPair that also returns the server, so tests
// can inspect the connection's recycled state.
func newServedPair(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(srvConn)
	}()
	c := NewClient(cliConn, testProg, testVers)
	t.Cleanup(func() {
		c.Close()
		srvConn.Close()
		<-done
	})
	return c, srv
}

// retained reports the capacities of every buffer the pair keeps for
// reuse between calls: the server connection's record and results
// buffers, the client's call buffer, and its pooled reply buffers.
// The serving goroutine settles its buffers before it writes a reply,
// so after a call returns they are safe to read.
func retained(c *Client, srv *Server) (rec, results, call int, replies []int) {
	srv.mu.Lock()
	for cs := range srv.conns {
		rec, results = cap(cs.sc.rec), cs.sc.results.Cap()
	}
	srv.mu.Unlock()
	c.wmu.Lock()
	call = c.wb.Cap()
	c.wmu.Unlock()
	var pooled [][]byte
drain:
	for len(pooled) < replyPoolSize {
		select {
		case b := <-c.free:
			pooled = append(pooled, b)
		default:
			break drain
		}
	}
	for _, b := range pooled {
		replies = append(replies, cap(b))
		c.putReply(b)
	}
	return rec, results, call, replies
}

func echo(t *testing.T, c *Client, n int) {
	t.Helper()
	in := bytes.Repeat([]byte{0xA5}, n)
	var out blob
	if err := c.Call(procEcho, &blob{B: in}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.B, in) {
		t.Fatalf("%d-byte echo corrupted", n)
	}
}

// A 1 MiB call recycles its record buffers; a 16 MiB call uses larger
// ones once and drops them, so no buffer kept for reuse on either side
// exceeds MaxRetainedBuffer.
func TestRecordBuffersBounded(t *testing.T) {
	c, srv := newServedPair(t)
	echo(t, c, 1<<20)
	rec, results, call, replies := retained(c, srv)
	if rec < 1<<20 || results < 1<<20 || call < 1<<20 || slices.Max(append(replies, 0)) < 1<<20 {
		t.Fatalf("1 MiB call: record %d, results %d, call %d, replies %v; want each kept", rec, results, call, replies)
	}
	echo(t, c, 16<<20)
	rec, results, call, replies = retained(c, srv)
	for _, got := range append([]int{rec, results, call}, replies...) {
		if got > MaxRetainedBuffer {
			t.Fatalf("after a 16 MiB call: record %d, results %d, call %d, replies %v; bound %d",
				rec, results, call, replies, MaxRetainedBuffer)
		}
	}
	echo(t, c, 1<<20) // the dropped buffers leave the path working
}

// A null call's allocations are pinned process-wide (client and server
// together): no record or xid decoder is allocated per call. The five
// left are the call's reply channel (two objects), the server's reply
// header, and the client's reply reader and decoder.
func TestNullCallAllocs(t *testing.T) {
	const nullCallAllocs = 5
	c, _ := newServedPair(t)
	for i := 0; i < 10; i++ {
		if err := c.Call(procNull, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Call(procNull, nil, nil); err != nil {
			panic(err)
		}
	})
	if allocs > nullCallAllocs {
		t.Fatalf("null call allocates %.1f times, want at most %d", allocs, nullCallAllocs)
	}
}
