package async

import (
	"repro/internal/obs"
)

// pumpCounters maps each counter family on /metrics to the event it
// reads. Labelled families report every destination record; the others
// their sum, which is also what Stats reports under the same name.
var pumpCounters = []struct {
	name, help string
	ev         event
	byDest     bool
}{
	{"wsq_pump_calls_registered_total", "External calls registered with the pump.", evRegistered, false},
	{"wsq_pump_calls_started_total", "Call executions dispatched to the network.", evStarted, false},
	{"wsq_pump_calls_completed_total", "Call executions finished.", evCompleted, false},
	{"wsq_pump_cache_hits_total", "Registrations served instantly from the result cache.", evCacheHit, false},
	{"wsq_pump_coalesced_total", "Registrations piggybacked on an identical in-flight call.", evCoalesced, false},
	{"wsq_pump_calls_canceled_total", "Calls dropped before starting (context expiry, discard, shutdown).", evCanceled, false},
	{"wsq_pump_peer_hits_total", "Calls the key's home worker answered in place of an execution here, by destination.", evPeerHit, true},
	{"wsq_pump_retries_total", "Call re-executions after a transient failure, by destination.", evRetry, true},
	{"wsq_pump_hedges_total", "Duplicate (hedged) executions launched for slow attempts, by destination.", evHedge, true},
	{"wsq_pump_hedge_wins_total", "Hedged executions that answered before the original, by destination.", evHedgeWin, true},
	{"wsq_pump_call_timeouts_total", "Attempts abandoned at the per-call deadline, by destination.", evTimeout, true},
	{"wsq_pump_calls_failed_total", "Calls whose final outcome after retries was an error, by destination.", evFailed, true},
}

// perDest reads one value from every destination record, one series per
// destination.
func perDest[T any](p *Pump, read func(*destination) T) []obs.Series[T] {
	dests := *p.dests.Load()
	out := make([]obs.Series[T], 0, len(dests))
	for name, d := range dests {
		out = append(out, obs.Series[T]{Labels: []string{name}, Value: read(d)})
	}
	return out
}

// byDest is the label of every per-destination family; the pump is its
// one owner.
var byDest = []string{"dest"}

// Observe implements obs.Observable: it exposes the pump's destination
// records and instantaneous state on reg as families sampled at scrape
// time. Nothing is counted twice — the families read the same atomics
// Stats sums — and no scrape takes the pump's lock except the two
// queue gauges. Observe is idempotent and may be called at any point in
// the pump's life; the families are complete regardless of when.
func (p *Pump) Observe(reg *obs.Registry) {
	for _, f := range pumpCounters {
		ev := f.ev
		if f.byDest {
			reg.CounterVecFunc(f.name, f.help, byDest, "pump", func() []obs.Series[float64] {
				return perDest(p, func(d *destination) float64 { return float64(d.n[ev].Load()) })
			})
			continue
		}
		reg.CounterFunc(f.name, f.help, func() float64 {
			var sum int64
			for _, d := range *p.dests.Load() {
				sum += d.n[ev].Load()
			}
			return float64(sum)
		})
	}
	reg.HistogramFunc("wsq_pump_slot_wait_seconds",
		"Time calls wait for an execution slot (admission queue and retry re-acquisition).", p.slotWait.Snapshot)
	reg.HistogramVecFunc("wsq_pump_call_latency_seconds",
		"Wall time of physical engine executions, by destination.", byDest, "pump", func() []obs.Series[obs.HistSnapshot] {
			return perDest(p, func(d *destination) obs.HistSnapshot { return d.latency.Snapshot() })
		})
	reg.GaugeVecFunc("wsq_pump_dest_inflight",
		"Engine calls currently executing, by destination.", byDest, "pump", func() []obs.Series[float64] {
			return perDest(p, func(d *destination) float64 { return float64(d.active.Load()) })
		})
	reg.GaugeFunc("wsq_pump_active_calls",
		"Engine calls currently executing (all destinations).", func() float64 {
			running, _ := p.Active()
			return float64(running)
		})
	reg.GaugeFunc("wsq_pump_queue_depth",
		"Calls parked in the admission queue.", func() float64 {
			_, queued := p.Active()
			return float64(queued)
		})
	reg.GaugeFunc("wsq_pump_max_active",
		"Peak concurrently executing calls since the last stats reset.", func() float64 {
			return float64(p.maxActive.Load())
		})
}
