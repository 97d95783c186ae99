package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/vtab"
	"repro/internal/websim"
)

// countingEngine counts its Count executions by query text.
type countingEngine struct {
	search.Engine
	mu sync.Mutex
	n  map[string]int
}

func (e *countingEngine) Count(q string) (int64, error) {
	e.mu.Lock()
	e.n[q]++
	e.mu.Unlock()
	return e.Engine.Count(q)
}

func (e *countingEngine) counts() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.n))
	for q, n := range e.n {
		out[q] = n
	}
	return out
}

// webCountKey is the call key of an AltaVista WebCount call whose query
// text is q (vtab.Source.AppendKey).
func webCountKey(q string) string {
	return fmt.Sprintf("altavista|WebCount|%s|%d", q, vtab.DefaultRankLimit)
}

// allStates is Template 1 without its LIMIT, with a decoy literal that
// filters nothing but moves the query's RouteKey.
func allStates(term, decoy string) string {
	return fmt.Sprintf(`SELECT Name, Count FROM States, WebCount
		WHERE Name = T1 AND T2 = '%s' AND Name <> '%s'`, term, decoy)
}

// postRows posts sql to base's /query and returns the status and the
// response's rows, each as its JSON text, sorted: the ReqSync sits above
// a Sort on a non-async column, so rows come in call-completion order.
func postRows(base, sql string) (int, []string, error) {
	body, _ := json.Marshal(map[string]string{"sql": sql})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, nil, err
	}
	rows := make([]string, len(out.Rows))
	for i, r := range out.Rows {
		rows[i] = string(r)
	}
	sort.Strings(rows)
	return resp.StatusCode, rows, nil
}

// singleNode is one wsqd over the tier's corpus at zero latency: the
// reference a tier's answers are held to.
func singleNode(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := core.Open(core.Config{Dir: t.TempDir(), Async: true, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	corpus := websim.Default()
	db.RegisterEngine(websim.NewAltaVista(corpus), "AV")
	db.RegisterEngine(websim.NewGoogle(corpus), "G")
	if err := harness.LoadPaperTables(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(db, server.Options{}))
	t.Cleanup(func() { closeServer(t, "single node", srv) })
	return srv
}

// TestTierOneEngineCallPerKey is the tier's coalescing property: on a
// cold tier whose every worker asks for the same keys at once, in seeded
// random orders, each distinct key costs one engine execution tier-wide,
// run at its home, and every answer is the single node's. With a
// mid-run drain a key may have two homes; it runs at most once at each,
// nowhere else, and no client sees a 5xx.
//
// The drain case runs on two workers. Drain pushes the new ring to one
// worker at a time, and with three, a survivor still on the old ring can
// ask the old home after that one took the new ring: refused there, the
// survivor runs the call itself, at neither home.
func TestTierOneEngineCallPerKey(t *testing.T) {
	terms := []string{"crime", "beaches", "museums", "farming"}
	ref := singleNode(t)
	want := map[string][]string{}
	for _, term := range terms {
		code, rows, err := postRows(ref.URL, allStates(term, "ref"))
		if err != nil || code != http.StatusOK {
			t.Fatalf("reference %q: %d %v", term, code, err)
		}
		want[term] = rows
	}
	for _, tc := range []struct {
		workers, limit int
		drain          bool
	}{
		{2, 4, false}, {2, 16, false}, {3, 4, false}, {3, 16, false}, {2, 4, true},
	} {
		name := fmt.Sprintf("workers=%d/limit=%d", tc.workers, tc.limit)
		if tc.drain {
			name += "/drain"
		}
		t.Run(name, func(t *testing.T) {
			engines := map[string]*countingEngine{}
			env := startTierSpec(t, tierSpec{
				n:       tc.workers,
				model:   search.LatencyModel{Base: 2 * time.Millisecond},
				budgets: map[string]int{"altavista": tc.limit * tc.workers},
				calls:   16,
				altavista: func(id string, e search.Engine) search.Engine {
					ce := &countingEngine{Engine: e, n: map[string]int{}}
					engines[id] = ce
					return ce
				},
			})
			// The workers' rings decide homes; the coordinator's routes.
			before := env.nodes[len(env.nodes)-1].peers.Ring()
			// Each term once per worker: decoys that route it to each.
			type variant struct{ term, sql string }
			var variants []variant
			for _, term := range terms {
				for _, nd := range env.nodes {
					for i := 0; ; i++ {
						sql := allStates(term, fmt.Sprintf("decoy-%d", i))
						if m, _ := env.coord.ring().Owner(RouteKey(sql)); m.ID == nd.id {
							variants = append(variants, variant{term, sql})
							break
						}
					}
				}
			}

			var (
				wg      sync.WaitGroup
				done    atomic.Int64
				drained = make(chan struct{})
				mu      sync.Mutex
				bad     []string
			)
			if tc.drain {
				go func() {
					defer close(drained)
					for done.Load() < int64(len(variants)) {
						time.Sleep(time.Millisecond)
					}
					if _, err := env.coord.Drain(context.Background(), "w1"); err != nil {
						t.Errorf("drain: %v", err)
					}
				}()
			} else {
				close(drained)
			}
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					order := rand.New(rand.NewSource(int64(c + 1))).Perm(len(variants))
					for _, i := range order {
						v := variants[i]
						code, rows, err := postRows(env.csrv.URL, v.sql)
						done.Add(1)
						mu.Lock()
						switch {
						case err != nil || code != http.StatusOK:
							bad = append(bad, fmt.Sprintf("%q: status %d, %v", v.sql, code, err))
						case strings.Join(rows, ",") != strings.Join(want[v.term], ","):
							bad = append(bad, fmt.Sprintf("%q: rows %v, want the single node's %v", v.sql, rows, want[v.term]))
						}
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			<-drained
			for _, b := range bad {
				t.Error(b)
			}

			after := env.nodes[len(env.nodes)-1].peers.Ring()
			keys := map[string]bool{}
			var started int64
			for _, nd := range env.nodes {
				started += nd.db.Pump().Stats().Started
				if st := nd.peers.Stats(); st.FetchErrors != 0 {
					t.Errorf("%s: %d failed asks", nd.id, st.FetchErrors)
				}
				for q, n := range engines[nd.id].counts() {
					key := webCountKey(q)
					keys[key] = true
					oldHome, _ := before.Owner(key)
					newHome, _ := after.Owner(key)
					if n > 1 || nd.id != oldHome.ID && nd.id != newHome.ID {
						t.Errorf("%s ran %q %d times; its homes are %s and %s", nd.id, key, n, oldHome.ID, newHome.ID)
					}
				}
			}
			if len(keys) != 50*len(terms) {
				t.Errorf("%d distinct keys ran, want %d", len(keys), 50*len(terms))
			}
			for _, nd := range env.nodes {
				if _, ok := nd.db.Cache().Get(webCountKey("Texas near crime")); !ok && !(tc.drain && nd.id == "w1") {
					t.Errorf("%s does not cache %q: the key format this test assumes is stale", nd.id, webCountKey("Texas near crime"))
				}
			}
			if !tc.drain && started != int64(len(keys)) {
				t.Errorf("%d engine executions tier-wide for %d distinct keys", started, len(keys))
			}
			t.Logf("%d engine executions for %d distinct keys, %d queries", started, len(keys), done.Load())
		})
	}
}

// TestTierAskTakesNoSlot: an ask of a key's home holds no execution
// token. Two workers with one token each both run a query every key of
// which the other homes. Were each worker's one token held by its ask,
// the two asks would wait on each other until FetchTimeout (2 s) broke
// the cycle; instead both queries end in a few waves of 2 ms calls, each
// call run once, at its home.
func TestTierAskTakesNoSlot(t *testing.T) {
	env := startTierSpec(t, tierSpec{
		n:       2,
		model:   search.LatencyModel{Base: 2 * time.Millisecond},
		budgets: map[string]int{"altavista": 2},
	})
	res, err := env.nodes[0].db.QueryContext(context.Background(), "SELECT Name FROM States")
	if err != nil {
		t.Fatal(err)
	}
	ring := env.nodes[0].peers.Ring()
	homedOn := map[string][]string{}
	for _, row := range res.Rows {
		state := row[0].AsString()
		m, _ := ring.Owner(webCountKey(state + " near crime"))
		if len(homedOn[m.ID]) < 8 {
			homedOn[m.ID] = append(homedOn[m.ID], "Name = '"+state+"'")
		}
	}
	query := func(other string) string {
		return `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'crime' AND (` +
			strings.Join(homedOn[other], " OR ") + `)`
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i, nd := range env.nodes {
		other := env.nodes[1-i].id
		if len(homedOn[other]) == 0 {
			t.Fatalf("no state's key is homed on %s", other)
		}
		wg.Add(1)
		go func(nd *tierNode, sql string, want int) {
			defer wg.Done()
			code, rows, err := postRows(nd.srv.URL, sql)
			if err != nil || code != http.StatusOK || len(rows) != want {
				t.Errorf("%s: status %d, %d rows, %v; want 200 with %d rows", nd.id, code, len(rows), err, want)
			}
		}(nd, query(other), len(homedOn[other]))
	}
	wg.Wait()
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("both queries took %v; asks that held a token would wait out FetchTimeout", took)
	}
	for _, nd := range env.nodes {
		if st := nd.peers.Stats(); st.FetchErrors != 0 || st.FetchHits != int64(len(homedOn[nd.id])) {
			t.Errorf("%s asks: %+v; want %d answered, no errors", nd.id, st, len(homedOn[nd.id]))
		}
		if started := nd.db.Pump().Stats().Started; started != int64(len(homedOn[nd.id])) {
			t.Errorf("%s started %d calls; want the %d keys it homes", nd.id, started, len(homedOn[nd.id]))
		}
	}
}

// TestTierTracedAskRunsAtHome: on a cold tier, a traced query's call for
// a key the other worker homes is asked there and run there: the asker's
// shard.peer.fetch holds the home's shard.cache.get, a miss, which holds
// the home pump's own pump.call and its engine attempt.
func TestTierTracedAskRunsAtHome(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), nil)
	base, _ := crossNodePair(t, env, "crime")
	_, root, raw := env.tracedQuery(t, base)
	if root == nil {
		t.Fatal("no stitched trace")
	}
	var ws wireSpan
	if err := json.Unmarshal(raw, &ws); err != nil {
		t.Fatal(err)
	}
	checkSelfTimes(t, &ws)

	asker, _ := env.coord.ring().Owner(RouteKey(base))
	var cg *obs.Span
	root.WalkAll(func(s *obs.Span) {
		if cg == nil && s.Op == "shard.peer.fetch" {
			if s.Detail != "hit" || len(s.Children) != 1 {
				t.Errorf("peer fetch %q with %d children; want a hit holding the home's span", s.Detail, len(s.Children))
				return
			}
			cg = s.Children[0]
		}
	})
	if cg == nil {
		t.Fatal("no shard.peer.fetch span: no call was asked of the other worker")
	}
	if cg.Op != "shard.cache.get" || cg.Detail != "miss" || cg.Node == asker.ID {
		t.Fatalf("home span %s %q on %s; want shard.cache.get miss on the other worker", cg.Op, cg.Detail, cg.Node)
	}
	if len(cg.Children) != 1 || cg.Children[0].Op != "pump.call" {
		t.Fatalf("shard.cache.get children %+v; want the home's pump.call", cg.Children)
	}
	call := cg.Children[0]
	if call.Detail != "altavista" || len(call.Children) != 1 || call.Children[0].Op != "pump.attempt" {
		t.Errorf("home pump.call %q with children %+v; want one altavista attempt", call.Detail, call.Children)
	}
}

// TestCoordinatorProxyEndsWithItsClient: the coordinator's forward of a
// query is bounded by its client's context. Against a worker that never
// answers, a client that gives up at 20 ms frees the proxy within a
// second; a forward on a context of its own would hang until the worker
// let go.
func TestCoordinatorProxyEndsWithItsClient(t *testing.T) {
	hang := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-hang }))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(hang) })
	coord := NewCoordinator(Config{Workers: []Member{{ID: "w1", URL: srv.URL}}}, CoordinatorOptions{})
	t.Cleanup(coord.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"sql":"SELECT 1"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		coord.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("proxy still forwarding 1s after its client gave up at 20ms")
	}
	if rec.Code == http.StatusOK {
		t.Errorf("proxy answered 200 for a query no worker answered")
	}
	t.Logf("proxy returned %d after %v", rec.Code, time.Since(start))
}
