package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// An alarm puts the open-loop generator to sleep on a Linux timerfd
// read through Go's netpoller. While it waits the generator holds no
// P, so the engine and the server it drives keep running on the one
// the benchmark allows (see main), and the fd wakes it when the timer
// expires with the kernel's nanosecond resolution. A time.Sleep would
// wait in the runtime's epoll timeout when the process is idle, which
// rounds to milliseconds; a nanosleep would hold the P in a syscall.
type alarm struct {
	fd int
	f  *os.File // the fd, registered with the netpoller
}

func newAlarm() (*alarm, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &alarm{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil blocks the calling goroutine until t.
func (a *alarm) sleepUntil(t time.Time) error {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return nil
		}
		// struct itimerspec: it_interval (zero: one shot), it_value.
		spec := [4]int64{0, 0, int64(wait / time.Second), int64(wait % time.Second)}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(a.fd), 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return os.NewSyscallError("timerfd_settime", errno)
		}
		var expirations [8]byte
		if _, err := a.f.Read(expirations[:]); err != nil {
			return err
		}
	}
}

func (a *alarm) close() { a.f.Close() }
