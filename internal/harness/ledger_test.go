package harness

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/types"
	"repro/internal/websim"
)

// The ledger is the half of every bench workload's figures that does not
// depend on the machine, one row per workload shape, checked in as
// testdata/ledger.txt and compared cell by cell. Regenerate it after a
// deliberate change with
//
//	GOEXPERIMENT=synctest go test ./internal/harness -run TestLedger -update
//
// A plain `go test` checks every column but waves and latency_ms, which
// are measured in a synctest bubble (ledger_bubble_test.go); the race
// detector allocates on its own account, so a race build does not check
// objects and bytes, nor does a toolchain other than the one the file
// names.

// ledgerCols are the file's columns after the shape's name.
var ledgerCols = []string{"calls", "hits", "coalesced", "est_calls", "waves", "latency_ms", "objects", "bytes"}

// The columns a build may leave unchecked: waves and latency need a
// bubble, objects and bytes a non-race build of the file's toolchain.
const (
	colWaves   = 4
	colLatency = 5
	colObjects = 6
	colBytes   = 7
)

// ledgerLatency is the bench's fixed delay per engine call on the
// workloads that pay for calls.
const ledgerLatency = 2 * time.Millisecond

// ledgerShape is one bench workload's shape: how its database is
// configured and what one pass of its client sends.
type ledgerShape struct {
	name  string
	cache int  // result-cache entries, 0 = off
	web   bool // false: no engine is called, so no waves
	// tables loads what the queries need beyond the paper's tables.
	tables func(db *core.DB) error
	// passes(n) returns n passes of what the shape's client sends: the
	// same texts each time or, for a shape that parses every text, new
	// ones.
	passes func(n int) [][]string
	trace  bool
	// warm runs passes until one reaches no engine (the bench's warm
	// cache); otherwise one pass fills the idle trees before measuring.
	warm bool
	// varies, when set, says why the shape's allocation count is not
	// exact: its cells record the floor and the spread it may move in.
	varies string
}

// pumped is why a shape whose calls run on the pump's execution
// goroutines allocates a count that varies.
const pumped = "its calls run on the pump's execution goroutines, and what they and the query's goroutine allocate " +
	"depends on how the scheduler interleaves them: single passes differ by up to 0.3 % in objects and 3 % in bytes, their floor repeats"

// ledgerShapes are the rows, in file order. tier_hot serves hot_cache's
// queries through a coordinator and two workers, so hot_cache is its core.
func ledgerShapes(t *testing.T) []*ledgerShape {
	cs := benchConstants(2 * 16)
	var t1, t2, fig7 []string
	for i := 0; i < 16; i++ {
		t1 = append(t1, mustTemplate(t, 1, cs[i], ""))
		t2 = append(t2, mustTemplate(t, 2, cs[i], cs[16+i]))
		fig7 = append(fig7, fmt.Sprintf(
			`SELECT S.Name, R.V, Count FROM States S, Tiny R, WebCount WHERE S.Name = T1 AND T2 = '%s'`, cs[i]))
	}
	return []*ledgerShape{
		// Template 2 against a 256-entry cache its 16 × 100 keys cycle
		// through: every lookup misses, every completion evicts.
		{name: "t2_wave", cache: 256, web: true, passes: same(t2), varies: pumped},
		// Figure 7(a): the cross product with Tiny below the dependent
		// join, cache off, so each state's count is asked three times.
		{name: "fig7_cross", web: true, tables: loadTiny, passes: same(fig7), varies: pumped},
		{name: "pump_bound", web: true, passes: same(t1), varies: pumped},
		{name: "hot_cache", cache: 4096, web: true, warm: true, passes: same(t1)},
		{name: "hot_cache_traced", cache: 4096, web: true, warm: true, trace: true, passes: same(t1)},
		// Every text a new one, so every query parses, plans, rewrites and
		// leaves its tree idle. A pass is as many texts as the idle-tree map
		// holds (core's maxTreeTexts), so each pass drops the map once.
		{name: "hot_cache_first_sight", cache: 4096, web: true, warm: true, passes: unseen(t1[0], 256)},
		// The bench's query over a tenth of its rows (300 Cust, 3 000
		// Orders, 4 regions): scan, filter, hash join, group and sort over
		// stored tables.
		{name: "local_join", tables: loadOrders, passes: same([]string{localJoinQuery, localJoinQuery, localJoinQuery, localJoinQuery})},
	}
}

// benchConstants are the template constants the bench's default seed
// draws, in its order.
func benchConstants(n int) []string {
	pool := slices.Clone(datasets.TemplateConstants)
	search.NewRand(1).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

func mustTemplate(t *testing.T, n int, v1, v2 string) string {
	q, err := Template(n, v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// same repeats one pass of qs.
func same(qs []string) func(int) [][]string {
	return func(n int) [][]string {
		out := make([][]string, n)
		for i := range out {
			out[i] = qs
		}
		return out
	}
}

// unseen makes every pass perText texts of q never sent before, all of
// one length: q followed by ten whitespace characters spelling the
// text's number in base 3.
func unseen(q string, perText int) func(int) [][]string {
	next := 0
	return func(n int) [][]string {
		out := make([][]string, n)
		for p := range out {
			for range perText {
				var pad [10]byte
				for i, k := 0, next; i < len(pad); i, k = i+1, k/3 {
					pad[i] = " \t\n"[k%3]
				}
				next++
				out[p] = append(out[p], q+string(pad[:]))
			}
		}
		return out
	}
}

const localJoinQuery = `SELECT Region, COUNT(*), SUM(Amount) FROM Orders O, Cust C ` +
	`WHERE O.Cust = C.Id AND Amount > 100 GROUP BY Region ORDER BY Region`

func loadTiny(db *core.DB) error {
	if _, err := db.ExecContext(context.Background(), `CREATE TABLE Tiny (V INT)`); err != nil {
		return err
	}
	_, err := db.ExecContext(context.Background(), `INSERT INTO Tiny VALUES (1), (2), (3)`)
	return err
}

func loadOrders(db *core.DB) error {
	const custRows, ordersRows = 300, 3000
	for _, ddl := range []string{`CREATE TABLE Cust (Id INT, Region VARCHAR)`, `CREATE TABLE Orders (Id INT, Cust INT, Amount INT)`} {
		if _, err := db.ExecContext(context.Background(), ddl); err != nil {
			return err
		}
	}
	cust, _ := db.Catalog().Get("Cust")
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < custRows; i++ {
		if _, err := cust.Insert(types.Tuple{types.Int(int64(i)), types.Str(regions[i%len(regions)])}); err != nil {
			return err
		}
	}
	orders, _ := db.Catalog().Get("Orders")
	for i := 0; i < ordersRows; i++ {
		if _, err := orders.Insert(types.Tuple{types.Int(int64(i)), types.Int(int64(i * 7 % custRows)), types.Int(int64(i * 13 % 200))}); err != nil {
			return err
		}
	}
	return nil
}

// query sends q as the shape's client does.
func (sh *ledgerShape) query(db *core.DB, q string) error {
	_, err := db.QueryContextOpts(context.Background(), q, core.QueryOptions{Trace: sh.trace})
	return err
}

// setUp loads the shape's tables and brings db to the state its timed
// phase starts from; calls reports the engine calls made so far.
func (sh *ledgerShape) setUp(db *core.DB, calls func() int64) error {
	if err := LoadPaperTables(nil, db); err != nil {
		return err
	}
	if sh.tables != nil {
		if err := sh.tables(db); err != nil {
			return err
		}
	}
	for range 8 {
		before := calls()
		for _, q := range sh.passes(1)[0] {
			if err := sh.query(db, q); err != nil {
				return err
			}
		}
		if !sh.warm || calls() == before {
			return nil
		}
	}
	return fmt.Errorf("%s: cache still cold after 8 warm passes", sh.name)
}

// ledgerWaves, when the package is built with GOEXPERIMENT=synctest,
// measures a web shape's waves (distinct call start instants) and
// latency per query in a bubble, at ledgerLatency per call.
var ledgerWaves func(t *testing.T, sh *ledgerShape) (waves, latencyMS float64)

// memoEngine answers each request from what its engine answered the
// first time, so that after the set-up pass an engine call costs a map
// lookup: the simulated web's index CPU and allocations stay out of the
// objects and bytes columns, as the bench's replay engines keep them out
// of its numbers. It counts every Count and Search.
type memoEngine struct {
	search.Engine
	calls    atomic.Int64
	mu       sync.Mutex
	counts   map[string]int64
	searches map[searchKey][]search.Result
}

type searchKey struct {
	q string
	k int
}

func newMemoEngine(e search.Engine) *memoEngine {
	return &memoEngine{Engine: e, counts: map[string]int64{}, searches: map[searchKey][]search.Result{}}
}

func (e *memoEngine) Count(q string) (int64, error) {
	e.calls.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	n, ok := e.counts[q]
	if !ok {
		var err error
		if n, err = e.Engine.Count(q); err != nil {
			return 0, err
		}
		e.counts[q] = n
	}
	return n, nil
}

func (e *memoEngine) Search(q string, k int) ([]search.Result, error) {
	e.calls.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	rs, ok := e.searches[searchKey{q, k}]
	if !ok {
		var err error
		if rs, err = e.Engine.Search(q, k); err != nil {
			return nil, err
		}
		e.searches[searchKey{q, k}] = rs
	}
	return rs, nil
}

// The objects and bytes columns are the floor, the least of ledgerRuns
// passes, after ledgerWarm more: the pump's and a tree's storage grow to
// their steady size over the first few, and what is left to vary between
// passes only ever adds.
const ledgerWarm, ledgerRuns = 3, 5

// ledgerSpread is the allowance a varying shape's allocation cells carry.
const ledgerSpread = "±1%"

// measure returns the shape's row, leaving the cells of the columns
// skip names empty.
func (sh *ledgerShape) measure(t *testing.T, skip map[int]bool) []string {
	row := make([]string, len(ledgerCols))
	if !sh.web {
		row[colWaves], row[colLatency] = "-", "-"
	} else if !skip[colWaves] {
		waves, latency := ledgerWaves(t, sh)
		row[colWaves], row[colLatency] = num(waves), num(latency)
	}

	db, err := core.Open(core.Config{Dir: t.TempDir(), Async: true, CacheSize: sh.cache})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	corpus := websim.Default()
	av, g := newMemoEngine(websim.NewAltaVista(corpus)), newMemoEngine(websim.NewGoogle(corpus))
	db.RegisterEngine(av, "AV")
	db.RegisterEngine(g, "G")
	calls := func() int64 { return av.calls.Load() + g.calls.Load() }
	if err := sh.setUp(db, calls); err != nil {
		t.Fatal(err)
	}

	// One client goroutine on one P with the collector off, so that a
	// pooled buffer outlives the pass and a count repeats.
	warm, runs := ledgerWarm, ledgerRuns
	if skip[colObjects] {
		warm, runs = 0, 1 // the calls columns repeat from the first pass
	}
	passes := sh.passes(warm + runs)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var callsBefore int64
	var statsBefore async.Stats
	var objects, bytes []float64
	for i, pass := range passes {
		if i == warm {
			callsBefore, statsBefore = calls(), db.Pump().Stats()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, q := range pass {
			if err := sh.query(db, q); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		n := float64(len(pass))
		objects = append(objects, float64(after.Mallocs-before.Mallocs)/n)
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	stats := db.Pump().Stats()
	n := float64(runs * len(passes[0]))

	row[0] = num(float64(calls()-callsBefore) / n)
	row[1] = num(float64(stats.CacheHits-statsBefore.CacheHits) / n)
	row[2] = num(float64(stats.Coalesced-statsBefore.Coalesced) / n)
	row[3] = num(estCalls(t, db, passes[0]))
	if !skip[colObjects] {
		row[colObjects], row[colBytes] = sh.floor(t, "objects", objects[warm:]), sh.floor(t, "bytes", bytes[warm:])
	}
	return row
}

// floor renders the least of the runs, with the spread allowed a shape
// whose count varies.
func (sh *ledgerShape) floor(t *testing.T, col string, runs []float64) string {
	lo := slices.Min(runs)
	if sh.varies == "" {
		return num(lo)
	}
	t.Logf("%s %s per pass: %v; %s", sh.name, col, runs, sh.varies)
	return num(lo) + ledgerSpread
}

// estCalls is the planner's estimate of the pass's engine calls per
// query, under the bench's cost model: the median over its texts.
func estCalls(t *testing.T, db *core.DB, pass []string) float64 {
	model := plan.DefaultCostModel()
	model.CallLatency, model.CountFactor, model.MaxConcurrent = ledgerLatency, 1, async.DefaultMaxPerDest
	var est []float64
	for _, q := range pass {
		e, err := db.Estimate(q, model)
		if err != nil {
			t.Fatal(err)
		}
		est = append(est, e.ExternalCalls)
	}
	slices.Sort(est)
	return est[len(est)/2]
}

// num renders a figure to two decimals, without trailing zeros.
func num(v float64) string {
	return strconv.FormatFloat(math.Round(v*100)/100, 'f', -1, 64)
}

// toolchain names what the allocation columns depend on beside the
// code: the Go release and the architecture.
func toolchain() string {
	v := runtime.Version()
	if parts := strings.SplitN(v, ".", 3); len(parts) == 3 {
		v = parts[0] + "." + parts[1]
	}
	return v + " " + runtime.GOARCH
}

const ledgerHeader = `# The bench workloads' exact columns, one row per shape (DESIGN.md, "The
# ledger"): per query, engine calls, result-cache hits, registrations
# coalesced onto a call in flight, and the planner's estimated calls;
# latency waves and end-to-end latency at 2 ms per call in simulated time;
# heap objects and bytes on one client goroutine, one P, collector off.
# Regenerate with
#	GOEXPERIMENT=synctest go test ./internal/harness -run TestLedger -update
`

func formatLedger(tc string, names []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(ledgerHeader)
	fmt.Fprintf(&b, "toolchain %s\n", tc)
	fmt.Fprintf(&b, "%-22s", "shape")
	for _, c := range ledgerCols {
		fmt.Fprintf(&b, " %10s", c)
	}
	b.WriteByte('\n')
	for i, row := range rows {
		fmt.Fprintf(&b, "%-22s", names[i])
		for _, cell := range row {
			fmt.Fprintf(&b, " %10s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// parseLedger reads a file formatLedger wrote.
func parseLedger(text string) (tc string, rows map[string][]string, err error) {
	rows = map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "#"):
		case len(f) > 0 && f[0] == "toolchain":
			tc = strings.Join(f[1:], " ")
		case len(f) > 0 && f[0] == "shape":
			if !slices.Equal(f[1:], ledgerCols) {
				return "", nil, fmt.Errorf("columns %v, want %v", f[1:], ledgerCols)
			}
		case len(f) == 1+len(ledgerCols):
			rows[f[0]] = f[1:]
		default:
			return "", nil, fmt.Errorf("malformed line %q", line)
		}
	}
	return tc, rows, nil
}

// TestLedger measures every shape and compares its row with
// testdata/ledger.txt, or rewrites the file under -update.
func TestLedger(t *testing.T) {
	path := filepath.Join("testdata", "ledger.txt")
	skip := map[int]bool{}
	if ledgerWaves == nil {
		skip[colWaves], skip[colLatency] = true, true
	}
	if raceEnabled {
		skip[colObjects], skip[colBytes] = true, true
	}
	var wantTC string
	var want map[string][]string
	if !*update {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if wantTC, want, err = parseLedger(string(text)); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if wantTC != toolchain() {
			t.Logf("%s records %s's allocations; this is %s, so objects and bytes are not checked", path, wantTC, toolchain())
			skip[colObjects], skip[colBytes] = true, true
		}
	} else if len(skip) > 0 {
		t.Fatal("-update measures every column: build with GOEXPERIMENT=synctest and without -race")
	}

	var names []string
	var rows [][]string
	shapes := ledgerShapes(t)
	for _, sh := range shapes {
		wantRow, ok := want[sh.name]
		delete(want, sh.name)
		t.Run(sh.name, func(t *testing.T) {
			row := sh.measure(t, skip)
			names, rows = append(names, sh.name), append(rows, row)
			if *update {
				return
			}
			if !ok {
				t.Fatalf("no row in %s", path)
			}
			for c, cell := range row {
				if !skip[c] && !cellHolds(cell, wantRow[c]) {
					t.Errorf("%s %s: got %s, want %s (rerun with -update after a deliberate change)", sh.name, ledgerCols[c], cell, wantRow[c])
					if strings.Contains(wantRow[c], "±") {
						t.Logf("%s records a spread in its allocation columns: %s", sh.name, sh.varies)
					}
				}
			}
		})
	}
	for name := range want {
		t.Errorf("%s: %s has a row for no shape", name, path)
	}
	if *update && !t.Failed() {
		if len(rows) < len(shapes) {
			t.Fatal("-update rewrites every row: run the whole of TestLedger")
		}
		if err := os.WriteFile(path, []byte(formatLedger(toolchain(), names, rows)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// cellHolds reports whether a measured cell matches the file's: the same
// figure, or, where the file records a spread, a figure within it.
func cellHolds(got, want string) bool {
	if got == want {
		return true
	}
	w, spread, ok := strings.Cut(want, "±")
	if !ok {
		return false
	}
	g, _, _ := strings.Cut(got, "±")
	gf, err1 := strconv.ParseFloat(g, 64)
	wf, err2 := strconv.ParseFloat(w, 64)
	pct, err3 := strconv.ParseFloat(strings.TrimSuffix(spread, "%"), 64)
	return err1 == nil && err2 == nil && err3 == nil && math.Abs(gf-wf) <= wf*pct/100
}
