package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
)

// A stack is the server half of the system booted in-process the way
// cmd/cricket-server boots it: a nil-clock cuda.Runtime with one
// A100 behind cricket.NewServer, served by oncrpc on a loopback TCP
// listener. A traced stack also carries the obs collector shared by
// server and client, and wraps both ends of every connection in a
// counting carrier.
type stack struct {
	srv  *cricket.Server
	rpc  *oncrpc.Server
	l    net.Listener
	done sync.WaitGroup

	col  *obs.Collector // nil when untraced
	wire *carrier       // nil when untraced
}

func boot(col *obs.Collector) (*stack, error) {
	rt := cuda.NewRuntime(nil, gpu.New(gpu.SpecA100))
	s := &stack{srv: cricket.NewServer(rt), rpc: oncrpc.NewServer(), col: col}
	s.srv.Attach(s.rpc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.l = l
	if col == nil {
		s.done.Add(1)
		go func() {
			defer s.done.Done()
			_ = s.rpc.Serve(l) // returns once close shuts the server down
		}()
		return s, nil
	}
	s.srv.SetObserver(col)
	s.wire = &carrier{}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		var conns sync.WaitGroup
		defer conns.Wait()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer c.Close()
				_ = s.rpc.ServeConn(s.wire.wrap(c)) // ends when the peer or close drops the conn
			}()
		}
	}()
	return s, nil
}

// dial opens one client transport to the stack, wrapped when traced.
func (s *stack) dial() (io.ReadWriteCloser, error) {
	c, err := net.Dial("tcp", s.l.Addr().String())
	if err != nil {
		return nil, err
	}
	if s.wire != nil {
		return s.wire.wrap(c), nil
	}
	return c, nil
}

// options are the client options every workload uses: the native
// Rust platform (RPC-Lib, so rpc-args transfers only) on no clock.
func (s *stack) options() cricket.Options {
	return cricket.Options{Platform: guest.NativeRust(), Obs: s.col}
}

// connect dials a plain cricket.Client.
func (s *stack) connect() (*cricket.Client, error) {
	conn, err := s.dial()
	if err != nil {
		return nil, err
	}
	c, err := cricket.Connect(conn, s.options())
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// close stops serving, closes every connection and waits for the
// serving goroutines to end.
func (s *stack) close() {
	_ = s.rpc.Close()
	_ = s.l.Close()
	s.done.Wait()
}

// A carrier counts what crosses the transport on both ends of every
// connection of a traced stack: Read and Write calls, bytes, and the
// time spent inside Write.
type carrier struct {
	reads, writes, bytes, writeNS atomic.Int64
}

type carrierSnap struct {
	reads, writes, bytes int64
	write                time.Duration
}

func (c *carrier) snap() carrierSnap {
	return carrierSnap{c.reads.Load(), c.writes.Load(), c.bytes.Load(), time.Duration(c.writeNS.Load())}
}

func (a carrierSnap) sub(b carrierSnap) carrierSnap {
	return carrierSnap{a.reads - b.reads, a.writes - b.writes, a.bytes - b.bytes, a.write - b.write}
}

func (c *carrier) wrap(conn net.Conn) *countedConn { return &countedConn{Conn: conn, c: c} }

type countedConn struct {
	net.Conn
	c *carrier
}

func (cc *countedConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.reads.Add(1)
	cc.c.bytes.Add(int64(n))
	return n, err
}

func (cc *countedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := cc.Conn.Write(p)
	cc.c.writeNS.Add(int64(time.Since(t0)))
	cc.c.writes.Add(1)
	cc.c.bytes.Add(int64(n))
	return n, err
}
