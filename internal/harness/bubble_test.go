//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package harness

import (
	"sort"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/websim"
)

// The tests in the files built with GOEXPERIMENT=synctest run the paper's
// experiments in a synctest bubble: time.Sleep, timers and time.Now run on
// a fake clock that moves only when every goroutine in the bubble is
// blocked. An engine's simulated latency is then its exact cost, the
// engine's own CPU time costs nothing, and a query's wall time is a pure
// function of the latency model, the seed and the pump's schedule:
//
//	GOEXPERIMENT=synctest go test ./internal/harness

// engineCall is one recorded engine call on the bubble's clock; arg is
// what it was asked (a query, or a URL to fetch).
type engineCall struct {
	engine, arg string
	start, end  time.Time
}

func (c engineCall) dur() time.Duration { return c.end.Sub(c.start) }

// recorder collects every engine call of a bubbled environment.
type recorder struct {
	mu    sync.Mutex
	calls []engineCall
}

func (r *recorder) note(engine, arg string, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.calls = append(r.calls, engineCall{engine, arg, start, end})
	r.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (r *recorder) take() []engineCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

// recording wraps an engine and records each call's start and end.
type recording struct {
	search.Engine
	rec *recorder
}

func (e recording) Count(q string) (int64, error) {
	defer e.rec.note(e.Name(), q, time.Now())
	return e.Engine.Count(q)
}

func (e recording) Search(q string, k int) ([]search.Result, error) {
	defer e.rec.note(e.Name(), q, time.Now())
	return e.Engine.Search(q, k)
}

func (e recording) Fetch(url string) (string, error) {
	defer e.rec.note(e.Name(), url, time.Now())
	return e.Engine.Fetch(url)
}

// inBubble runs f inside a fresh synctest bubble against an environment
// built there — NewEnv's, with both engines recorded — and tears the
// environment down before leaving the bubble: DB.Close, then
// Pump().Quiesce, which retires the execution goroutines a pump keeps
// parked, since the bubble can end only when all of its goroutines have.
// f runs on the bubble's goroutine, not the test's, so it reports a
// failure by returning it (or by t.Error) rather than by t.Fatal.
func inBubble(t *testing.T, opts Options, f func(env *Env, rec *recorder) error) {
	t.Helper()
	dir := t.TempDir()
	// Go 1.24's synctest.Run gives the race detector no edge from the end
	// of the bubble to its return; this send and receive make one, so what
	// f wrote is ordered before the test's next step.
	done := make(chan struct{}, 1)
	synctest.Run(func() {
		defer func() { done <- struct{}{} }()
		corpus := websim.Default()
		rec := &recorder{}
		env := &Env{
			AV:     search.NewDelayedRand(websim.NewAltaVista(corpus), opts.Latency, search.NewRand(1000+opts.Seed)),
			Google: search.NewDelayedRand(websim.NewGoogle(corpus), opts.Latency, search.NewRand(2000+opts.Seed)),
		}
		db, err := core.Open(core.Config{
			Dir:                dir,
			Async:              true,
			MaxConcurrentCalls: opts.MaxConcurrentCalls,
			MaxCallsPerDest:    opts.MaxCallsPerDest,
			CacheSize:          opts.CacheSize,
		})
		if err != nil {
			t.Error(err)
			return
		}
		env.DB = db
		defer func() {
			db.Close()
			db.Pump().Quiesce()
		}()
		db.RegisterEngine(recording{env.AV, rec}, "AV")
		db.RegisterEngine(recording{env.Google, rec}, "G")
		err = LoadPaperTables(nil, db)
		if err == nil {
			err = f(env, rec)
		}
		if err != nil {
			t.Error(err)
		}
	})
	<-done
}

// sumDurations is a synchronous query's cost model: its calls one after
// another.
func sumDurations(calls []engineCall) time.Duration {
	var total time.Duration
	for _, c := range calls {
		total += c.dur()
	}
	return total
}

// fifoMakespan is an asynchronous query's cost model: the makespan of a
// work-conserving FIFO list schedule of the calls' durations under the
// pump's limits, every call queued at time zero in the order it started.
// Whenever a call ends, the queue is walked from its head and every call
// that fits — fewer than perDest running on its engine and fewer than
// total running overall — starts, as the pump's dispatch does.
func fifoMakespan(calls []engineCall, perDest, total int) time.Duration {
	queue := append([]engineCall(nil), calls...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].start.Before(queue[j].start) })
	type running struct {
		engine string
		end    time.Duration
	}
	var now, makespan time.Duration
	var active []running
	for len(queue) > 0 {
		perEngine := map[string]int{}
		for _, r := range active {
			perEngine[r.engine]++
		}
		rest := queue[:0]
		for _, c := range queue {
			if len(active) < total && perEngine[c.engine] < perDest {
				perEngine[c.engine]++
				active = append(active, running{c.engine, now + c.dur()})
				makespan = max(makespan, now+c.dur())
				continue
			}
			rest = append(rest, c)
		}
		queue = rest
		// Advance to the next completion and retire every call ending then.
		now = active[0].end
		for _, r := range active {
			now = min(now, r.end)
		}
		kept := active[:0]
		for _, r := range active {
			if r.end > now {
				kept = append(kept, r)
			}
		}
		active = kept
	}
	return makespan
}

// splitByQuery cuts the calls of queries that ran one after another from
// start, taking walls, at the queries' boundaries. On the bubble's clock,
// where nothing but an engine call takes time, query i owns exactly the
// calls that started in [start+Σ walls[:i], start+Σ walls[:i+1]).
func splitByQuery(calls []engineCall, start time.Time, walls []time.Duration) [][]engineCall {
	out := make([][]engineCall, len(walls))
	lo := start
	for i, w := range walls {
		hi := lo.Add(w)
		for _, c := range calls {
			if !c.start.Before(lo) && c.start.Before(hi) {
				out[i] = append(out[i], c)
			}
		}
		lo = hi
	}
	return out
}
