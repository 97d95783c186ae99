//go:build goexperiment.synctest

package harness

import (
	"testing"
	"time"

	"repro/internal/search"
)

func init() { ledgerWaves = bubbleWaves }

// bubbleWaves runs one pass of the shape in a bubble, every engine call
// taking ledgerLatency, from the state its timed phase starts in. A wave
// is an instant at which at least one of a query's calls starts; on the
// bubble's clock a query waits for nothing else.
func bubbleWaves(t *testing.T, sh *ledgerShape) (waves, latencyMS float64) {
	latency := search.LatencyModel{Base: ledgerLatency, CountFactor: 1}
	inBubble(t, Options{Latency: latency, CacheSize: sh.cache}, func(env *Env, rec *recorder) error {
		calls := func() int64 {
			rec.mu.Lock()
			defer rec.mu.Unlock()
			return int64(len(rec.calls))
		}
		if err := sh.setUp(env.DB, calls); err != nil {
			return err
		}
		rec.take()
		pass := sh.passes(1)[0]
		var total time.Duration
		starts := 0
		for _, q := range pass {
			start := time.Now()
			if err := sh.query(env.DB, q); err != nil {
				return err
			}
			total += time.Since(start)
			seen := map[time.Time]bool{}
			for _, c := range rec.take() {
				seen[c.start] = true
			}
			starts += len(seen)
		}
		n := float64(len(pass))
		waves, latencyMS = float64(starts)/n, float64(total)/float64(time.Millisecond)/n
		return nil
	})
	return waves, latencyMS
}
