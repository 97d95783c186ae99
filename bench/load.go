package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// slice is one equal part of the timed phase, as sampled at its end.
type slice struct {
	seconds float64
	queries int64
	cpu     time.Duration // process user+sys CPU spent during the slice
	ms      []float64     // wall time of each query that completed in the slice
}

// loadResult is everything one timed phase measured.
type loadResult struct {
	slices      []slice
	attempted   int
	failed      int
	engineCalls int64
	peak        int64
	seconds     float64
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs a closed loop of clients over the fixture's queries for the
// given time, sampled in equal slices. Each client waits for its reply
// and checks it before sending its next query; client c starts c/clients
// of the way round the cyclic query order, so one client repeats the
// seeded order exactly and several spread over it.
func drive(ctx context.Context, fx *fixture, clients int, total time.Duration, slices int) loadResult {
	type done struct {
		at time.Time
		ms float64
	}
	type clientLog struct {
		lat    []done
		failed int
	}
	logs := make([]clientLog, clients)
	var completed atomic.Int64
	var stop atomic.Bool

	fx.engines.resetCounters()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			for i := c * len(fx.queries) / clients; !stop.Load() && ctx.Err() == nil; i++ {
				q := fx.queries[i%len(fx.queries)]
				t0 := time.Now()
				got, err := fx.query(ctx, q)
				t1 := time.Now()
				log.lat = append(log.lat, done{t1, ms(t1.Sub(t0))})
				if err != nil || got != fx.want[q] {
					log.failed++
				}
				completed.Add(1)
			}
		}(c)
	}

	res := loadResult{}
	ends := make([]time.Time, 0, slices)
	prevT, prevQ, prevCPU := start, int64(0), cpuTime()
	for s := 1; s <= slices; s++ {
		sleepUntil(ctx, start.Add(total*time.Duration(s)/time.Duration(slices)))
		now, q, cpu := time.Now(), completed.Load(), cpuTime()
		res.slices = append(res.slices, slice{seconds: now.Sub(prevT).Seconds(), queries: q - prevQ, cpu: cpu - prevCPU})
		ends = append(ends, now)
		prevT, prevQ, prevCPU = now, q, cpu
	}
	stop.Store(true)
	wg.Wait()
	res.seconds = time.Since(start).Seconds()

	for _, l := range logs {
		i := 0
		for _, d := range l.lat {
			for i < len(ends) && d.at.After(ends[i]) {
				i++
			}
			if i < len(ends) { // queries still in flight at the end belong to no slice
				res.slices[i].ms = append(res.slices[i].ms, d.ms)
			}
		}
		res.attempted += len(l.lat)
		res.failed += l.failed
	}
	res.engineCalls = fx.engines.calls()
	res.peak = fx.engines.peak()
	return res
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// quiet returns the quarter of the slices with the highest completion
// rate: the part of the run the host disturbed least. Interference from
// other tenants only ever slows a slice down, and it comes in bursts of
// seconds, so the fast slices are the ones that show the program; every
// metric is a median over them. On the reference box this held the
// run-to-run spread of queries_per_s / p50 / p95 to 3/4/4 % on local_join
// and 8/10/6 % on tier_hot, where the median over all slices gave 5/5/9 %
// and 13/16/13 %.
func (r loadResult) quiet() []slice {
	s := append([]slice(nil), r.slices...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].rate() > s[j].rate() })
	return s[:max(1, len(s)/4)]
}

func (s slice) rate() float64 { return float64(s.queries) / s.seconds }

// overQuiet is the median over the quiet slices of f, skipping slices in
// which no query completed.
func (r loadResult) overQuiet(f func(slice) float64) float64 {
	var v []float64
	for _, s := range r.quiet() {
		if len(s.ms) > 0 {
			v = append(v, f(s))
		}
	}
	return median(v)
}

// queryMS is the p-quantile of query wall time.
func (r loadResult) queryMS(p float64) float64 {
	return r.overQuiet(func(s slice) float64 { return percentile(s.ms, p) })
}

// queriesPerS is the completion rate.
func (r loadResult) queriesPerS() float64 { return r.overQuiet(slice.rate) }

// cpuMSPerQuery is the process CPU per completed query.
func (r loadResult) cpuMSPerQuery() float64 {
	return r.overQuiet(func(s slice) float64 { return ms(s.cpu) / float64(s.queries) })
}
