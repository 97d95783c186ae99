package async

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// fifoCache is a result cache of fixed capacity that evicts its oldest key
// and counts its lookups, so a test can hold the pump's counters against
// what the cache itself saw. The pump probes it outside its own lock, so
// it keeps one of its own.
type fifoCache struct {
	mu         sync.Mutex
	cap        int
	order      []string
	m          map[string][]types.Tuple
	gets, hits int64
}

func (c *fifoCache) Get(k string) ([]types.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	rows, ok := c.m[k]
	if ok {
		c.hits++
	}
	return rows, ok
}

// Peek counts a hit as Get does and a miss not at all.
func (c *fifoCache) Peek(k []byte) ([]types.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows, ok := c.m[string(k)]
	if ok {
		c.gets++
		c.hits++
	}
	return rows, ok
}

// counts reads the lookups and hits the cache has counted.
func (c *fifoCache) counts() (gets, hits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets, c.hits
}

func (c *fifoCache) Put(k string, rows []types.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; !ok {
		if len(c.order) == c.cap {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, k)
	}
	c.m[k] = rows
}

func multiset(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestColdAndWarmRunsAgree runs one plan — ReqSync over a dependent join
// into an AEVScan, optionally under a LIMIT — twice over one scripted
// source and one cache-backed pump, across seeds that vary result
// cardinality (0..3 rows), duplicate keys, batch size (so a key repeats
// within a round and across rounds), a cache smaller than the key set (so
// the second run mixes hits and misses inside a round, after evictions
// between rounds) and permanent failures under drop and partial.
//
// The second run answers its hits at registration and must be
// indistinguishable from the first by its answer: both produce the rows
// the scripts dictate. Each run's accounting must be that of one cache
// lookup per distinct key per round: the pump's Registered and CacheHits
// deltas are the cache's own lookup and hit counts, every registration is
// a hit, a coalesced call or a started (or dropped) one, only non-hits are listed for
// discarding, and both runs register equally often whenever the rounds
// cannot split differently. Nothing is left in the call table.
func TestColdAndWarmRunsAgree(t *testing.T) {
	policies := []exec.DegradePolicy{exec.DegradeFail, exec.DegradeDrop, exec.DegradePartial}
	for iter := 0; iter < 60 && !t.Failed(); iter++ {
		seed := int64(5000 + iter)
		policy := policies[iter%3]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, policy), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := 1 + rng.Intn(8)
			terms := make([]string, 1+rng.Intn(24))
			distinct := map[string]bool{}
			for i := range terms {
				terms[i] = fmt.Sprintf("t%d", rng.Intn(pool))
				if iter%4 == 0 {
					terms[i] = fmt.Sprintf("u%d", i) // no duplicate keys
				}
				distinct[terms[i]] = true
			}
			nRows, hard := map[string]int{}, map[string]bool{}
			for term := range distinct {
				nRows[term] = rng.Intn(4)
				hard[term] = policy != exec.DegradeFail && rng.Float64() < 0.2
			}
			batch := []int{1, 3, 256}[rng.Intn(3)]
			limit := -1
			if rng.Intn(3) == 0 {
				limit = 1 + rng.Intn(6)
			}
			cache := &fifoCache{cap: 1 + rng.Intn(len(distinct)+1), m: map[string][]types.Tuple{}}
			// One slot: calls complete, and fill the cache, in registration order.
			pump := NewPump(1, 1, cache)
			defer pump.Close()
			src := &scriptedSource{name: "S", dest: "d", numEcho: 1,
				rows: func(arg string) ([]types.Tuple, error) {
					if hard[arg] {
						return nil, fmt.Errorf("%s: scripted failure", arg)
					}
					out := make([]types.Tuple, nRows[arg])
					for i := range out {
						out[i] = types.Tuple{types.Str(fmt.Sprintf("%s#%d", arg, i))}
					}
					return out, nil
				}}

			var want []types.Tuple
			for _, term := range terms {
				switch {
				case hard[term] && policy == exec.DegradePartial:
					want = append(want, types.Tuple{types.Str(term), types.Str(term), types.Null()})
				case !hard[term]:
					for i := 0; i < nRows[term]; i++ {
						want = append(want, types.Tuple{types.Str(term), types.Str(term), types.Str(fmt.Sprintf("%s#%d", term, i))})
					}
				}
			}

			run := func(which string) (registered int64) {
				termCol := strCol("L", "Term")
				aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)},
					schema.New(strCol("V", "Term"), strCol("V", "Val")), pump)
				dj := exec.NewDependentJoin(exec.NewValuesScan(schema.New(termCol), tuplesOf(terms)), aev, "")
				var op exec.Operator = syncOver(dj, pump, aev.FilledAttrs())
				if limit >= 0 {
					op = exec.NewLimit(op, limit)
				}
				before := pump.Stats()
				gets, hits := cache.counts()
				ectx := exec.NewContext()
				ectx.Degrade, ectx.BatchSize = policy, batch
				rows, err := exec.Run(ectx, op)
				if err != nil {
					t.Fatalf("%s run: %v", which, err)
				}
				pump.Quiesce()
				st := pump.Stats()
				reg, hit := st.Registered-before.Registered, st.CacheHits-before.CacheHits
				if gets2, hits2 := cache.counts(); reg != gets2-gets || hit != hits2-hits {
					t.Errorf("%s run: pump counts %d registrations, %d hits; the cache saw %d lookups, %d hits",
						which, reg, hit, gets2-gets, hits2-hits)
				}
				// (Canceled: under a LIMIT, calls still queued when the query ends.)
				if rest := (st.Coalesced - before.Coalesced) + (st.Started - before.Started) + (st.Canceled - before.Canceled); reg != hit+rest {
					t.Errorf("%s run: %d registrations != %d hits + %d coalesced, started or canceled", which, reg, hit, rest)
				}
				if int64(len(ectx.PumpCalls)) != reg-hit {
					t.Errorf("%s run: %d calls listed for discarding, want the %d non-hits", which, len(ectx.PumpCalls), reg-hit)
				}
				if ectx.Stats.ExternalCalls != int64(len(terms)) {
					t.Errorf("%s run: %d logical calls for %d bindings", which, ectx.Stats.ExternalCalls, len(terms))
				}
				got, all := multiset(rows), multiset(want)
				if limit < 0 {
					if strings.Join(got, "\n") != strings.Join(all, "\n") {
						t.Errorf("%s run: rows\n%v\nwant\n%v", which, got, all)
					}
				} else if len(got) != min(limit, len(all)) || !subMultiset(got, all) {
					t.Errorf("%s run under LIMIT %d: rows\n%v\nnot %d of\n%v", which, limit, got, min(limit, len(all)), all)
				}
				if limit < 0 && pump.Held() != 0 { // under a LIMIT the runner's Discard is the last owner
					t.Errorf("%s run: %d call records held with no Discard", which, pump.Held())
				}
				pump.Discard(ectx.PumpCalls...)
				return reg
			}
			cold := run("cold")
			warm := run("warm")
			// Hits of several rows, or none, move the round boundaries of a
			// small batch; a key repeated across a boundary is then looked
			// up a different number of times.
			if (len(distinct) == len(terms) || batch >= len(terms)) && cold != warm {
				t.Errorf("cold run registered %d calls, warm run %d", cold, warm)
			}
			if held := pump.Held(); held != 0 {
				t.Errorf("%d call records held after both runs", held)
			}
		})
	}
}

// subMultiset reports whether sorted a is contained in sorted b.
func subMultiset(a, b []string) bool {
	i := 0
	for _, s := range b {
		if i < len(a) && a[i] == s {
			i++
		}
	}
	return i == len(a)
}

// TestAEVScanHitRowWidthChecked: a cached result row that does not have
// every result field fails the asynchronous scan exactly as it fails the
// synchronous one, instead of being padded with NULLs.
func TestAEVScanHitRowWidthChecked(t *testing.T) {
	short := []types.Tuple{{types.Str("only-url")}}
	pump := NewPump(0, 0, &countingCache{m: map[string][]types.Tuple{"P|x": short}})
	defer pump.Close()
	src := pagesSource("P", "d", 1)
	aev := NewAEVScan(src, []expr.Expr{expr.NewLiteral(types.Str("x"))}, pagesSchema("P"), pump)
	ev := exec.NewEVScan(src, []expr.Expr{expr.NewLiteral(types.Str("x"))}, pagesSchema("P"))
	syncCtx := exec.NewContext()
	syncCtx.RetryCall = pump.CallWithRetry
	errAsync, errSync := aev.Open(exec.NewContext()), ev.Open(syncCtx)
	if errAsync == nil || errSync == nil || errAsync.Error() != errSync.Error() {
		t.Errorf("short cached row: async %v, sync %v; want the same width error", errAsync, errSync)
	}
}
