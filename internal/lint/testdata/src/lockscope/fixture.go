// Fixture for the lockscope rule, loaded as "repro/internal/server":
// manual Lock() must Unlock() on every return path, and no channel
// operation may run while a lock is held.
package server

import (
	"errors"
	"sync"
)

var errStub = errors.New("stub")

type statsTable struct {
	mu   sync.Mutex
	rwmu sync.RWMutex
	n    int
	ch   chan int
}

// --- positives --------------------------------------------------------

func (s *statsTable) LeakOnEarlyReturn(fail bool) error {
	s.mu.Lock()
	if fail {
		return errStub // want "no Unlock\\(\\) on this return path"
	}
	s.mu.Unlock()
	return nil
}

func (s *statsTable) LeakAtEnd() {
	s.mu.Lock()
	s.n++
} // want "no Unlock\\(\\) on this return path"

func (s *statsTable) SendWhileLocked(v int) {
	s.mu.Lock()
	s.ch <- v // want "channel send while holding"
	s.mu.Unlock()
}

func (s *statsTable) RecvWhileLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "channel receive while holding"
}

func (s *statsTable) SelectWhileLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select while holding"
	case v := <-s.ch:
		s.n = v
	default:
	}
}

// The coordinator's Drain with one exit undone (DESIGN.md §7, mutant
// lockscope4): a run of validation exits, each unlocking by hand, one of
// which forgot. No test drains the same worker twice, so only this rule
// stands between that return and a coordinator that answers nothing.
func (s *statsTable) ValidateThenMutate(id int, seen map[int]bool) error {
	s.mu.Lock()
	if id < 0 {
		s.mu.Unlock()
		return errStub
	}
	if seen[id] {
		return errStub // want "no Unlock\\(\\) on this return path"
	}
	seen[id] = true
	s.mu.Unlock()
	return nil
}

// --- negatives --------------------------------------------------------

func (s *statsTable) UnlockAllPaths(fail bool) error {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return errStub
	}
	s.n++
	s.mu.Unlock()
	return nil
}

func (s *statsTable) DeferredUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

func (s *statsTable) DeferClosureUnlock() {
	s.mu.Lock()
	defer func() {
		s.n++
		s.mu.Unlock()
	}()
	s.n += 2
}

func (s *statsTable) SendAfterUnlock(v int) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- v
}

func (s *statsTable) ReadLocked() int {
	s.rwmu.RLock()
	defer s.rwmu.RUnlock()
	return s.n
}
