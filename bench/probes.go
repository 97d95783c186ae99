package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/async"
	"repro/internal/cache"
	"repro/internal/types"
)

// probes times single layers on private instances, outside any query:
// the pump's register/await/take round trip, the cache's hit and
// evicting-insert paths, and a bare heap scan. They are the same on every
// workload except the scan, which needs local_join's Orders table.
func probes(ctx context.Context, fx *fixture, set func(name string, v float64, unit string)) error {
	single, burst, err := pumpProbe(ctx)
	if err != nil {
		return err
	}
	set("async.pump_roundtrip_us", single, "us")
	set("async.pump_burst50_us", burst, "us")
	get, put := cacheProbe()
	set("cache.get_ns", get, "ns")
	set("cache.put_evict_ns", put, "ns")

	scan := 0.0
	if _, ok := fx.db.Catalog().Get("Orders"); ok {
		var runs []float64
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			res, err := fx.db.QueryContext(ctx, `SELECT COUNT(*) FROM Orders`)
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 || res.Rows[0][0].I != ordersRows {
				return fmt.Errorf("COUNT(*) FROM Orders = %v, want %d", res.Rows, ordersRows)
			}
			runs = append(runs, time.Since(t0).Seconds())
		}
		scan = ordersRows / percentile(runs, 0.5)
	}
	set("exec.scan_rows_per_s", scan, "1/s")
	return nil
}

// pumpProbe returns the p50 of one no-op call's RegisterCtx + AwaitAnyCtx
// + Take, and of 50 registered at once and drained.
func pumpProbe(ctx context.Context) (singleUS, burstUS float64, err error) {
	p := async.NewPump(0, 0, nil)
	defer func() {
		p.Close()
		p.Quiesce()
	}()
	noop := func() ([]types.Tuple, error) { return nil, nil }
	drain := func(n int) error {
		pending := make(map[types.CallID]bool, n)
		for i := 0; i < n; i++ {
			pending[p.RegisterCtx(ctx, "probe", "", noop)] = true
		}
		for len(pending) > 0 {
			id, err := p.AwaitAnyCtx(ctx, pending)
			if err != nil {
				return err
			}
			if res, ok := p.Take(id); !ok || res.Err != nil {
				return fmt.Errorf("pump probe: call %d: taken=%v err=%v", id, ok, res.Err)
			}
			delete(pending, id)
		}
		return nil
	}
	time1 := func(reps, n int) (float64, error) {
		var v []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := drain(n); err != nil {
				return 0, err
			}
			v = append(v, us(time.Since(t0)))
		}
		return percentile(v, 0.5), nil
	}
	if singleUS, err = time1(2000, 1); err != nil {
		return 0, 0, err
	}
	burstUS, err = time1(200, 50)
	return singleUS, burstUS, err
}

// cacheProbe returns ns per Cache.Get hit on a cache that fits its keys,
// and ns per Cache.Put of a new key into a full cache (one eviction each),
// as the p50 over batches of 1 000.
func cacheProbe() (getNS, putEvictNS float64) {
	const batch, batches = 1000, 20
	rows := []types.Tuple{{types.Int(1)}}
	keys := make([]string, batch)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-key-%04d", i)
	}
	fits := cache.New(4096)
	for _, k := range keys {
		fits.Put(k, rows)
	}
	full := cache.New(256)
	for _, k := range keys[:256] {
		full.Put(k, rows)
	}
	var gets, puts []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for _, k := range keys {
			fits.Get(k)
		}
		gets = append(gets, float64(time.Since(t0))/batch)

		fresh := make([]string, batch)
		for i := range fresh {
			fresh[i] = fmt.Sprintf("evict-%02d-%04d", b, i)
		}
		t0 = time.Now()
		for _, k := range fresh {
			full.Put(k, rows)
		}
		puts = append(puts, float64(time.Since(t0))/batch)
	}
	return percentile(gets, 0.5), percentile(puts, 0.5)
}
