package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the layer. Spans of one query share a
// query_id; parent names the span that caused this one.
type span struct {
	QueryID int    `json:"query_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(qid int, name, parent string, start, end time.Duration) {
	l.spans = append(l.spans, span{QueryID: qid, Name: name, Parent: parent, StartNS: int64(start), EndNS: int64(end)})
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// maxStepwise caps the traced queries so a span file stays a few MB.
const maxStepwise = 400

// series collects one per-query measurement across the traced queries.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) p50(name string) float64    { return percentile(s[name], 0.5) }

// stepwise executes one query through the layers' public functions the
// way core.DB.runQueryable composes them, recording a span around each.
// The database must have async off, so Plan returns the plain tree and
// the rewrite is a step of its own.
func stepwise(ctx context.Context, db *core.DB, sql string, qid int, log *spanLog, calls *callLog, s series, sp *spec) ([]types.Tuple, error) {
	q0 := sinceEpoch()
	st, err := sqlparse.Parse(sql)
	t1 := sinceEpoch()
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %T", st)
	}
	op, err := db.Plan(sel)
	t2 := sinceEpoch()
	if err != nil {
		return nil, err
	}
	op = async.Rewrite(op, db.Pump())
	t3 := sinceEpoch()
	ectx := exec.NewContextWith(ctx)
	ectx.RetryCall = db.Pump().CallWithRetry
	rows, err := exec.Run(ectx, op)
	t4 := sinceEpoch()
	if err != nil {
		return nil, err
	}
	q1 := sinceEpoch()

	log.add(qid, "query", "", q0, q1)
	log.add(qid, "sqlparse.parse", "query", q0, t1)
	log.add(qid, "plan.plan", "query", t1, t2)
	log.add(qid, "async.rewrite", "query", t2, t3)
	log.add(qid, "exec.run", "query", t3, t4)
	cs := calls.drain()
	for _, c := range cs {
		log.add(qid, "search.call", "exec.run", c.start, c.end)
	}

	s.add("query_us", us(q1-q0))
	s.add("parse_us", us(t1-q0))
	s.add("plan_us", us(t2-t1))
	s.add("rewrite_us", us(t3-t2))
	s.add("run_ms", ms(t4-t3))
	s.add("stages_us", us((t1-q0)+(t2-t1)+(t3-t2)+(t4-t3)))
	s.add("self_ms", ms((t4-t3)-covered(cs, t3, t4)))
	if len(cs) > 0 {
		first, last := cs[0].start, cs[0].end
		byDest := map[string]int{}
		for _, c := range cs {
			first, last = min(first, c.start), max(last, c.end)
			byDest[c.dest]++
			s.add("overshoot_us", us(c.end-c.start-sp.latency))
		}
		floor := floorMS(byDest, async.DefaultMaxPerDest, async.DefaultMaxTotal, sp.latency)
		s.add("first_call_us", us(first-q0))
		s.add("inflight_overhead_ms", ms(last-first)-floor)
		s.add("settle_tail_us", us(q1-last))
		s.add("floor_ms", floor)
		for _, g := range refillGaps(cs, async.DefaultMaxPerDest) {
			s.add("slot_refill_us", us(g))
		}
	}
	return rows, nil
}

// covered is the length of the part of [from, to] that the call spans
// cover; a layer's self time is its span minus this.
func covered(cs []callSpan, from, to time.Duration) time.Duration {
	sorted := append([]callSpan(nil), cs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var total time.Duration
	edge := from
	for _, c := range sorted {
		a, b := max(c.start, edge), min(c.end, to)
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// refillGaps returns, per destination, how long each freed slot stayed
// idle while calls were still waiting: once limit calls have started, the
// next start is matched with the earliest unmatched call end before it.
func refillGaps(cs []callSpan, limit int) []time.Duration {
	byDest := map[string][]callSpan{}
	for _, c := range cs {
		byDest[c.dest] = append(byDest[c.dest], c)
	}
	var gaps []time.Duration
	for _, calls := range byDest {
		if len(calls) <= limit {
			continue
		}
		sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
		ends := make([]time.Duration, len(calls))
		for i, c := range calls {
			ends[i] = c.end
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		for i := limit; i < len(calls); i++ {
			if freed := ends[i-limit]; calls[i].start >= freed {
				gaps = append(gaps, calls[i].start-freed)
			}
		}
	}
	return gaps
}

// lane is one way of issuing the workload's queries in the traced run.
// Lanes take turns on one client, round-robin, so that drift in the
// machine over the run lands on all of them alike: differences between
// two lanes' medians (the overhead and hop metrics) are then differences
// between the paths, not between the minutes they ran in.
type lane struct {
	do func(i int, sql string) (digest, error)
	// enter and leave bracket each turn (swap a handler in, snapshot
	// counters); either may be nil.
	enter, leave func()
	// maxN caps the lane's queries over the whole run (0 = no cap).
	maxN int
	ms   []float64 // per-query wall times
}

func (l *lane) p50() float64 { return percentile(l.ms, 0.5) }

// interleave runs the lanes in rounds for the budget. All lanes share one
// cursor over the cyclic query order, so the sequence of queries the
// program sees is the same as in the untraced run. Each turn issues at
// least one query; it returns the failures.
func interleave(ctx context.Context, fx *fixture, budget time.Duration, rounds int, lanes []*lane) (failed int) {
	turn := budget / time.Duration(rounds*len(lanes))
	cursor := 0
	for r := 0; r < rounds; r++ {
		for _, l := range lanes {
			if l.enter != nil {
				l.enter()
			}
			until := time.Now().Add(turn)
			for first := true; ctx.Err() == nil && (l.maxN == 0 || len(l.ms) < l.maxN) && (first || time.Now().Before(until)); first = false {
				q := fx.queries[cursor%len(fx.queries)]
				t0 := time.Now()
				got, err := l.do(cursor, q)
				l.ms = append(l.ms, ms(time.Since(t0)))
				if err != nil || got != fx.want[q] {
					failed++
				}
				cursor++
			}
			if l.leave != nil {
				l.leave()
			}
		}
	}
	return failed
}

// counters is a snapshot of every count the traced run reports as a
// per-query delta.
type counters map[string]float64

func snapshot(fx *fixture) counters {
	c := counters{}
	dbs := []*core.DB{fx.db}
	if fx.tier != nil {
		dbs = dbs[:0]
		for _, nd := range fx.tier.nodes {
			dbs = append(dbs, nd.db)
			c["remote_cache_hits"] += float64(nd.worker.Stats().RemoteHits)
		}
	}
	for _, db := range dbs {
		st := db.Pump().Stats()
		c["registered"] += float64(st.Registered)
		c["coalesced"] += float64(st.Coalesced)
		c["pump_cache_hits"] += float64(st.CacheHits)
		h, m := db.Cache().Stats()
		c["hits"] += float64(h)
		c["misses"] += float64(m)
		c["evictions"] += float64(db.Cache().Evictions())
	}
	c["calls"] = float64(fx.engines.calls())
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c["mallocs"], c["bytes"] = float64(mem.Mallocs), float64(mem.TotalAlloc)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		c["gc_cpu_s"] = sample[0].Value.Float64()
	}
	c["cpu_s"] = cpuTime().Seconds()
	return c
}

// addDelta accumulates after-before into c.
func (c counters) addDelta(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// tracedRun measures a workload's per-layer metrics with one client.
// Three lanes take turns: each query executed stepwise with a span at
// every layer boundary; the workload's own path untraced, for the counts
// and as the base the traced lanes are compared with; and QueryContext
// with the program's own tracing on. The tier adds its hops as lanes.
func tracedRun(ctx context.Context, opt options, sp *spec) (rep report, err error) {
	fx, err := setUp(ctx, sp, opt.seed, opt.outDir)
	if err != nil {
		return report{}, err
	}
	defer func() { err = errors.Join(err, fx.close()) }()
	warmUp(ctx, fx, 1)

	total := opt.timed
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	db := fx.db

	log, calls, s := &spanLog{}, &callLog{}, series{}
	step := &lane{
		maxN:  maxStepwise,
		enter: func() { fx.engines.trace(calls); db.SetAsync(false) },
		leave: func() { db.SetAsync(true); fx.engines.trace(nil) },
		do: func(i int, sql string) (digest, error) {
			rows, err := stepwise(ctx, db, sql, i, log, calls, s, sp)
			return digestTuples(rows), err
		},
	}

	// The workload's own path, untraced; counts accumulate over its turns.
	// Goroutines are counted at each call start and each query end.
	delta, peak, goroutines := counters{}, int64(0), &peakGauge{}
	var before counters
	path := &lane{
		do: func(_ int, sql string) (digest, error) {
			d, err := fx.query(ctx, sql)
			goroutines.offer(int64(runtime.NumGoroutine()))
			return d, err
		},
		enter: func() {
			fx.engines.resetCounters()
			fx.engines.sampleGoroutines(goroutines)
			before = snapshot(fx)
		},
		leave: func() {
			delta.addDelta(before, snapshot(fx))
			fx.engines.sampleGoroutines(nil)
			peak = max(peak, fx.engines.peak())
		},
	}

	inproc := func(opts core.QueryOptions) *lane {
		return &lane{do: func(_ int, sql string) (digest, error) {
			res, err := db.QueryContextOpts(ctx, sql, opts)
			if err != nil {
				return digest{}, err
			}
			return digestTuples(res.Rows), nil
		}}
	}
	obsLane := inproc(core.QueryOptions{Trace: true})
	lanes := []*lane{step, path, obsLane}

	// In-process QueryContext is the workload's own path except on the
	// tier, where it is a lane of its own beside the tier's hops.
	coreLane, traced := path, step
	var hops *tierLanes
	if fx.tier != nil {
		coreLane = inproc(core.QueryOptions{})
		hops = newTierLanes(ctx, fx, log)
		traced = hops.traced
		lanes = append(lanes, coreLane, hops.serve, hops.direct, hops.traced)
	}
	failed := interleave(ctx, fx, total*8/10, 4, lanes)

	n := float64(len(path.ms))
	pathP50, coreP50 := path.p50(), coreLane.p50()
	if hops != nil {
		set("server.handle_overhead_us", (hops.serve.p50()-coreP50)*1000, "us")
		set("server.http_overhead_us", (hops.direct.p50()-hops.serve.p50())*1000, "us")
		set("shard.coord_hop_us", (pathP50-hops.direct.p50())*1000, "us")
		set("shard.coord_self_us", percentile(hops.coordSelfUS, 0.5), "us")
	} else {
		for _, name := range []string{"server.handle_overhead_us", "server.http_overhead_us", "shard.coord_hop_us", "shard.coord_self_us"} {
			set(name, 0, "us")
		}
	}

	set("sqlparse.parse_us", s.p50("parse_us"), "us")
	set("plan.plan_us", s.p50("plan_us"), "us")
	set("async.rewrite_us", s.p50("rewrite_us"), "us")
	set("exec.run_ms", s.p50("run_ms"), "ms")
	set("exec.self_ms", s.p50("self_ms"), "ms")
	set("exec.rows_per_s", float64(storedRows(db, fx.queries[0]))/(s.p50("run_ms")/1000), "1/s")
	set("async.first_call_us", s.p50("first_call_us"), "us")
	set("async.inflight_overhead_ms", s.p50("inflight_overhead_ms"), "ms")
	set("async.slot_refill_us", s.p50("slot_refill_us"), "us")
	set("async.settle_tail_us", s.p50("settle_tail_us"), "us")
	set("search.sleep_overshoot_us", s.p50("overshoot_us"), "us")
	set("core.query_us", coreP50*1000, "us")
	set("core.stepwise_gap_us", coreP50*1000-s.p50("stages_us"), "us")
	set("core.floor_ms", s.p50("floor_ms"), "ms")
	overFloor := 0.0
	if s.p50("floor_ms") > 0 {
		overFloor = pathP50 - s.p50("floor_ms")
	}
	set("core.overhead_over_floor_ms", overFloor, "ms")
	set("obs.trace_overhead_share", obsLane.p50()/coreP50-1, "ratio")
	set("bench.trace_overhead_share", traced.p50()/pathP50-1, "ratio")

	set("engine_calls_per_query", delta["calls"]/n, "count")
	set("cpu_ms_per_query", delta["cpu_s"]*1000/n, "ms")
	set("async.peak_inflight", float64(peak), "count")
	set("async.registered_per_query", delta["registered"]/n, "count")
	set("async.coalesced_per_query", delta["coalesced"]/n, "count")
	set("async.cache_hits_per_query", delta["pump_cache_hits"]/n, "count")
	hitShare := 0.0
	if lookups := delta["hits"] + delta["misses"]; lookups > 0 {
		hitShare = delta["hits"] / lookups
	}
	set("cache.hit_share", hitShare, "ratio")
	set("cache.evictions_per_query", delta["evictions"]/n, "count")
	set("shard.peer_hits_per_query", delta["remote_cache_hits"]/n, "count")
	set("runtime.allocs_per_query", delta["mallocs"]/n, "count")
	set("runtime.alloc_kb_per_query", delta["bytes"]/1024/n, "kb")
	gcShare := 0.0
	if delta["cpu_s"] > 0 {
		gcShare = delta["gc_cpu_s"] / delta["cpu_s"]
	}
	set("runtime.gc_cpu_share", gcShare, "ratio")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	set("runtime.heap_peak_mb", float64(mem.HeapSys)/(1<<20), "mb")
	set("runtime.goroutines_peak", float64(goroutines.v.Load()), "count")

	// The planner's advisory estimate against what was measured.
	model := plan.DefaultCostModel()
	model.CallLatency, model.CountFactor, model.MaxConcurrent = sp.latency, 1, async.DefaultMaxPerDest
	var estCalls, estMS []float64
	for _, q := range fx.queries {
		est, err := db.Estimate(q, model)
		if err != nil {
			return report{}, err
		}
		estCalls, estMS = append(estCalls, est.ExternalCalls), append(estMS, ms(est.AsyncLatency))
	}
	set("plan.est_calls_err", relErr(median(estCalls), delta["calls"]/n), "ratio")
	set("plan.est_async_ms_err", relErr(median(estMS), pathP50), "ratio")

	// The paper's Table 1 cell: the same queries through the synchronous
	// executor, only where calls are paid for.
	attempted := 0
	for _, l := range lanes {
		attempted += len(l.ms)
	}
	improvement := 0.0
	if sp.latency > 0 && sp.callsPerQuery > 0 {
		sync := &lane{
			maxN:  20,
			do:    func(_ int, sql string) (digest, error) { return fx.query(ctx, sql) },
			enter: func() { db.SetAsync(false) },
			leave: func() { db.SetAsync(true) },
		}
		failed += interleave(ctx, fx, total*2/10, 1, []*lane{sync})
		attempted += len(sync.ms)
		improvement = sync.p50() / pathP50
	}
	set("core.improvement_x", improvement, "x")

	if err := probes(ctx, fx, set); err != nil {
		return report{}, err
	}
	set("shard.route_key_us", routeKeyUS(fx.queries), "us")
	set("storage.insert_rows_per_s", fx.insertRowsPerS, "1/s")
	set("failed_share", float64(failed)/float64(attempted), "ratio")

	if err := ctx.Err(); err != nil {
		return report{}, err
	}
	if err := log.write(filepath.Join(opt.outDir, "trace-"+sp.name+".json")); err != nil {
		return report{}, err
	}
	fmt.Printf("%s: %d queries traced stepwise, %d on the untraced path, %d spans; %d of %d failed\n",
		sp.name, len(step.ms), len(path.ms), len(log.spans), failed, attempted)
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// storedRows is the number of rows in the stored tables the query's FROM
// list names: the input exec.rows_per_s divides by the run time.
func storedRows(db *core.DB, sql string) int {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return 0
	}
	n := 0
	for _, f := range sel.From {
		if t, ok := db.Catalog().Get(f.Table); ok {
			if rows, err := t.ScanAll(); err == nil {
				n += len(rows)
			}
		}
	}
	return n
}

func routeKeyUS(queries []string) float64 {
	var v []float64
	for rep := 0; rep < 50; rep++ {
		for _, q := range queries {
			t0 := time.Now()
			_ = shard.RouteKey(q)
			v = append(v, us(time.Since(t0)))
		}
	}
	return percentile(v, 0.5)
}
