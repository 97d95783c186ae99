// Fixture for the goroutinectx rule, loaded as "repro/internal/async":
// go func literals must select on a cancellation signal or register
// with a WaitGroup.
package async

import (
	"context"
	"sync"
	"time"
)

type worker struct {
	wg   sync.WaitGroup
	stop chan struct{}
	jobs chan int
}

// --- positives --------------------------------------------------------

func (w *worker) SpawnUnowned() {
	go func() { // want "no cancellation path"
		for j := range w.jobs {
			_ = j
		}
	}()
}

func SpawnDetached(out chan<- int) {
	go func() { // want "no cancellation path"
		out <- 1
	}()
}

// A membership update that starts a refresher nobody can stop (DESIGN.md
// §7, mutant goroutine1): one more goroutine per update for the life of
// the process, and no test counts goroutines across Peers.Update.
func (w *worker) UpdateStartsTicker() {
	go func() { // want "no cancellation path"
		for {
			time.Sleep(time.Second)
			_ = len(w.jobs)
		}
	}()
}

// --- negatives --------------------------------------------------------

func (w *worker) SpawnCtx(ctx context.Context) {
	go func() {
		select {
		case j := <-w.jobs:
			_ = j
		case <-ctx.Done():
			return
		}
	}()
}

func (w *worker) SpawnStopChan() {
	go func() {
		for {
			select {
			case j := <-w.jobs:
				_ = j
			case <-w.stop:
				return
			}
		}
	}()
}

func (w *worker) SpawnWaitGroup() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for j := range w.jobs {
			_ = j
		}
	}()
}

func (w *worker) SpawnNamed() {
	go w.drain() // want "goroutine target .*drain.* has no cancellation path"
}

func (w *worker) drain() {
	for range w.jobs {
	}
}

// SpawnNamedCancellable resolves through the call graph: runLoop never
// mentions a channel itself, but its callee selects on the stop signal.
func (w *worker) SpawnNamedCancellable() {
	go w.runLoop()
}

func (w *worker) runLoop() {
	for w.step() {
	}
}

func (w *worker) step() bool {
	select {
	case <-w.stop:
		return false
	case j := <-w.jobs:
		_ = j
		return true
	}
}
