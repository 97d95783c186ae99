package main

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The Go runtime's idle thread waits for timers in epoll_wait, whose
// timeout is whole milliseconds: a 2 ms time.Sleep ends up to 1 ms late,
// by an amount that depends on how long the program computed after the
// call started. A replayed call must instead end when a real engine's
// reply would: at its own time, announced by the kernel through the
// network poller. On Linux a sleeper therefore owns one timerfd and one
// goroutine that reads it; sleeping calls queue their deadlines and are
// released as each comes due.

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

type itimerspec struct {
	Interval syscall.Timespec
	Value    syscall.Timespec
}

type waiter struct {
	due  time.Time
	wake chan struct{}
}

// sleeper gives callers delays that end on time. All delays in flight at
// once must be equal, which is what keeps the queue in deadline order;
// the replay engines of one fixture share one latency.
type sleeper struct {
	timer *os.File // nil: the kernel refused a timerfd, fall back to time.Sleep

	mu    sync.Mutex
	queue []waiter
	kick  chan struct{} // tells the idle dispatcher the queue is no longer empty
	stop  chan struct{}
	done  chan struct{}
}

func newSleeper() *sleeper {
	s := &sleeper{}
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return s
	}
	s.timer = os.NewFile(fd, "timerfd")
	s.kick, s.stop, s.done = make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	go s.dispatch()
	return s
}

// sleep blocks the calling goroutine for d.
func (s *sleeper) sleep(d time.Duration) {
	if s.timer == nil {
		time.Sleep(d)
		return
	}
	w := waiter{wake: make(chan struct{})}
	s.mu.Lock()
	w.due = time.Now().Add(d)
	s.queue = append(s.queue, w)
	first := len(s.queue) == 1
	s.mu.Unlock()
	if first {
		select {
		case s.kick <- struct{}{}:
		default: // a kick is already pending
		}
	}
	<-w.wake
}

// dispatch waits for the head of the queue to come due, releases every
// waiter that is due by then, and repeats.
func (s *sleeper) dispatch() {
	defer close(s.done)
	for {
		s.mu.Lock()
		var head time.Time
		if len(s.queue) > 0 {
			head = s.queue[0].due
		}
		s.mu.Unlock()
		if head.IsZero() {
			select {
			case <-s.kick:
				continue
			case <-s.stop:
				return
			}
		}
		if d := time.Until(head); d > 0 && !s.wait(d) {
			return // the timer was closed under us: the sleeper is shutting down
		}
		now := time.Now()
		s.mu.Lock()
		n := 0
		for n < len(s.queue) && !s.queue[n].due.After(now) {
			n++
		}
		due := s.queue[:n:n]
		s.queue = s.queue[n:]
		s.mu.Unlock()
		for _, w := range due {
			close(w.wake)
		}
	}
}

// wait arms the timer for d and parks in the poller until it fires.
func (s *sleeper) wait(d time.Duration) bool {
	rc, err := s.timer.SyscallConn()
	if err != nil {
		return false
	}
	spec := itimerspec{Value: syscall.NsecToTimespec(int64(d))}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil || errno != 0 {
		return false
	}
	var expirations [8]byte
	_, err = s.timer.Read(expirations[:])
	return err == nil
}

// close stops the dispatcher and waits for it. No call may be sleeping.
func (s *sleeper) close() error {
	if s.timer == nil {
		return nil
	}
	close(s.stop)
	err := s.timer.Close() // also fails a Read the dispatcher is parked in
	<-s.done
	return err
}
