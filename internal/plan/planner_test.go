package plan

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sqlparse"
	"repro/internal/types"
	"repro/internal/vtab"
)

// stubEngine provides deterministic counts and pages for planner tests;
// maxK is the largest rank limit a Search asked for.
type stubEngine struct {
	name string
	maxK atomic.Int64
}

func (s *stubEngine) Name() string { return s.name }
func (s *stubEngine) Count(q string) (int64, error) {
	return int64(len(q)), nil
}
func (s *stubEngine) Search(q string, k int) ([]search.Result, error) {
	for {
		if m := s.maxK.Load(); int64(k) <= m || s.maxK.CompareAndSwap(m, int64(k)) {
			break
		}
	}
	var out []search.Result
	for i := 1; i <= k && i <= 3; i++ {
		out = append(out, search.Result{URL: q + "/u", Rank: i, Date: "1999-01-01"})
	}
	return out, nil
}
func (s *stubEngine) Fetch(url string) (string, error) { return "<html>" + url + "</html>", nil }

func newPlanner(t *testing.T) *Planner {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	states, err := cat.Create("States", []catalog.ColumnDef{
		{Name: "Name", Type: schema.TString},
		{Name: "Population", Type: schema.TInt},
		{Name: "Capital", Type: schema.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []types.Tuple{
		{types.Str("Utah"), types.Int(2100), types.Str("Salt Lake City")},
		{types.Str("Iowa"), types.Int(2862), types.Str("Des Moines")},
		{types.Str("Ohio"), types.Int(11209), types.Str("Columbus")},
	} {
		if _, err := states.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	er := search.NewRegistry()
	er.Register(&stubEngine{name: "altavista"}, "AV")
	er.Register(&stubEngine{name: "google"}, "G")
	return New(cat, vtab.NewRegistry(er))
}

func planSQL(t *testing.T, p *Planner, sql string) exec.Operator {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	op, err := p.PlanSelect(sel)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return op
}

func planErr(t *testing.T, p *Planner, sql string) error {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.PlanSelect(sel)
	if err == nil {
		t.Fatalf("plan %q should fail", sql)
	}
	return err
}

func runPlan(t *testing.T, op exec.Operator) []types.Tuple {
	t.Helper()
	rows, err := exec.Run(exec.NewContext(), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPlanSimpleScan(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT * FROM States`)
	if exec.Shape(op) != "Scan" {
		t.Errorf("shape: %s", exec.Shape(op))
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("rows")
	}
}

func TestPlanFilterProjection(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name FROM States WHERE Population > 2500`)
	// The selection reads States only, so it runs inside the scan.
	if got := exec.Shape(op); got != "Project(Scan)" {
		t.Errorf("shape: %s", got)
	}
	if got := exec.Explain(op); !strings.Contains(got, "Scan: States [States.Population > 2500]") {
		t.Errorf("EXPLAIN does not show the scan's predicate:\n%s", got)
	}
	rows := runPlan(t, op)
	if len(rows) != 2 {
		t.Errorf("rows: %v", rows)
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Errorf("projection width: %v", r)
		}
	}
}

func TestPlanQuery1ShapeMatchesFigure(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC`)
	// Sort(Project(DependentJoin(Scan, EVScan))) — Figure 2 plus the
	// projection our planner always emits for explicit select lists.
	if got := exec.Shape(op); got != "Sort(Project(Dependent Join(Scan,EVScan)))" {
		t.Fatalf("shape: %s", got)
	}
	rows := runPlan(t, op)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	// Counts come from the stub (len of query = len of state name); Ohio,
	// Utah, Iowa all length 4 — verify descending order anyway.
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].Compare(rows[i][1]) < 0 {
			t.Errorf("sort order: %v", rows)
		}
	}
}

func TestPlanBindingToConstant(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'four corners'`)
	rows := runPlan(t, op)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	// Stub count = len("NAME near four corners").
	for _, r := range rows {
		wantQ := r[0].AsString() + " near four corners"
		if r[1].I != int64(len(wantQ)) {
			t.Errorf("default SearchExp %%1 near %%2 not used: %v", r)
		}
	}
}

func TestPlanExplicitSearchExp(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, Count FROM States, WebCount
		WHERE SearchExp = '"%1" AND politics' AND Name = T1`)
	rows := runPlan(t, op)
	for _, r := range rows {
		wantQ := `"` + r[0].AsString() + `" AND politics`
		if r[1].I != int64(len(wantQ)) {
			t.Errorf("explicit SearchExp ignored: %v (want len %d)", r, len(wantQ))
		}
	}
}

func TestPlanRankLimitExtraction(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, URL, Rank FROM States, WebPages WHERE Name = T1 AND Rank <= 2`)
	rows := runPlan(t, op)
	if len(rows) != 6 { // 3 states x 2 ranks
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if n, _ := r[2].AsInt(); n > 2 {
			t.Errorf("rank limit violated: %v", r)
		}
	}
	// Strict bound Rank < 2 means limit 1.
	op = planSQL(t, p, `SELECT Name, URL, Rank FROM States, WebPages WHERE Name = T1 AND Rank < 2`)
	if got := len(runPlan(t, op)); got != 3 {
		t.Errorf("strict rank bound rows: %d", got)
	}
}

// TestPlanDefaultRankLimit: a WebPages scan with no Rank predicate asks
// the engine for the paper's default of 20 pages.
func TestPlanDefaultRankLimit(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, URL FROM States, WebPages WHERE Name = T1`)
	rows := runPlan(t, op)
	if len(rows) != 9 { // 3 states × the stub's 3 pages
		t.Errorf("default guard rows: %d", len(rows))
	}
	def, err := p.VTabs.Resolve("WebPages")
	if err != nil {
		t.Fatal(err)
	}
	if k := def.Engine.(*stubEngine).maxK.Load(); k != 20 {
		t.Errorf("engine asked for %d pages, want the paper's default of 20", k)
	}
}

func TestPlanQuery4TwoOccurrences(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Capital, C.Count, Name, S.Count
		FROM States, WebCount C, WebCount S
		WHERE Capital = C.T1 AND Name = S.T1 AND C.Count > S.Count`)
	rows := runPlan(t, op)
	// Stub count = len(name): capitals longer than state names win.
	// "Salt Lake City"(14) > "Utah"(4), "Des Moines"(10) > "Iowa"(4),
	// "Columbus"(8) > "Ohio"(4) — all three.
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		if r[1].I <= r[3].I {
			t.Errorf("retained predicate not applied: %v", r)
		}
	}
}

func TestPlanEngineSuffixes(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, AV.URL FROM States, WebPages_AV AV, WebPages_Google G
		WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 1 AND G.Rank <= 1 AND AV.URL = G.URL`)
	rows := runPlan(t, op)
	// Stub returns identical URLs for both engines, so every state joins.
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	shape := exec.Shape(op)
	if !strings.Contains(shape, "Dependent Join(Dependent Join(Scan,EVScan),EVScan)") {
		t.Errorf("stacked dependent joins: %s", shape)
	}
}

func TestPlanUnboundInputErrors(t *testing.T) {
	p := newPlanner(t)
	err := planErr(t, p, `SELECT Name, Count FROM States, WebCount ORDER BY Count DESC`)
	if !strings.Contains(err.Error(), "no search terms bound") {
		t.Errorf("error: %v", err)
	}
}

func TestPlanJoinOrderViolationErrors(t *testing.T) {
	p := newPlanner(t)
	// WebCount appears BEFORE States in FROM: T1 cannot be bound.
	err := planErr(t, p, `SELECT Name, Count FROM WebCount, States WHERE Name = T1`)
	if !strings.Contains(err.Error(), "FROM order") {
		t.Errorf("error: %v", err)
	}
}

func TestPlanVirtualFirstWithConstants(t *testing.T) {
	p := newPlanner(t)
	// A virtual table first in FROM is fine when bound by constants.
	op := planSQL(t, p, `SELECT Count FROM WebCount WHERE T1 = 'California'`)
	rows := runPlan(t, op)
	if len(rows) != 1 || rows[0][0].I != int64(len("California")) {
		t.Fatalf("rows: %v", rows)
	}
}

func TestPlanAggregates(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Capital, COUNT(*) AS n, SUM(Population) AS s
		FROM States GROUP BY Capital ORDER BY n DESC`)
	rows := runPlan(t, op)
	if len(rows) != 3 {
		t.Fatalf("groups: %v", rows)
	}
	for _, r := range rows {
		if r[1].I != 1 {
			t.Errorf("count per capital: %v", r)
		}
	}
	// Global aggregate.
	op = planSQL(t, p, `SELECT COUNT(*) FROM States`)
	rows = runPlan(t, op)
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("global count: %v", rows)
	}
	// Non-grouped select item must be rejected.
	planErr(t, p, `SELECT Name, COUNT(*) FROM States GROUP BY Capital`)
	// Star with aggregation is rejected.
	planErr(t, p, `SELECT * FROM States GROUP BY Capital`)
}

func TestPlanDistinctAndLimit(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT DISTINCT Capital FROM States LIMIT 2`)
	if got := exec.Shape(op); got != "Limit(Distinct(Project(Scan)))" {
		t.Errorf("shape: %s", got)
	}
	if len(runPlan(t, op)) != 2 {
		t.Error("limit")
	}
}

func TestPlanOrderByAlias(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Name, Count / Population AS C FROM States, WebCount
		WHERE Name = T1 ORDER BY C DESC`)
	rows := runPlan(t, op)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].Compare(rows[i][1]) < 0 {
			t.Errorf("order by alias: %v", rows)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	p := newPlanner(t)
	cases := []string{
		`SELECT * FROM Missing`,
		`SELECT Nope FROM States`,
		`SELECT Name FROM States S, States S`,            // duplicate alias
		`SELECT Name FROM States WHERE Ghost = 1`,        // unknown column
		`SELECT Name FROM States, WebCount WHERE x = T1`, // unknown binding column
	}
	for _, sql := range cases {
		planErr(t, p, sql)
	}
}

func TestPlanAmbiguousColumn(t *testing.T) {
	p := newPlanner(t)
	err := planErr(t, p, `SELECT Count FROM States, WebCount C, WebCount S
		WHERE Capital = C.T1 AND Name = S.T1`)
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("error: %v", err)
	}
}

func TestPlanCrossJoinStoredTables(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT S1.Name, S2.Name FROM States S1, States S2`)
	if got := exec.Shape(op); got != "Project(Cross-Product(Scan,Scan))" {
		t.Errorf("shape: %s", got)
	}
	if len(runPlan(t, op)) != 9 {
		t.Error("cross size")
	}
}

func TestPlanEquiJoinBecomesHashJoin(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT S1.Name FROM States S1, States S2 WHERE S1.Name = S2.Name`)
	if got := exec.Shape(op); got != "Project(Hash Join(Scan,Scan))" {
		t.Errorf("equality should select a hash join: %s", got)
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("join rows")
	}
}

func TestPlanEquiJoinWithResidual(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT S1.Name FROM States S1, States S2
		WHERE S1.Name = S2.Name AND S1.Population < S2.Population + 1`)
	if got := exec.Shape(op); got != "Project(Hash Join(Scan,Scan))" {
		t.Errorf("residual should ride the hash join: %s", got)
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("join rows")
	}
}

func TestPlanNonEquiJoinStaysNestedLoop(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT S1.Name FROM States S1, States S2 WHERE S1.Population < S2.Population`)
	if got := exec.Shape(op); got != "Project(Join(Scan,Scan))" {
		t.Errorf("non-equi predicate must stay nested-loop: %s", got)
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("join rows")
	}
}

func TestPlanTinyBuildSideStaysNestedLoop(t *testing.T) {
	p := newPlanner(t)
	one, err := p.Cat.Create("One", []catalog.ColumnDef{{Name: "Name", Type: schema.TString}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Insert(types.Tuple{types.Str("Utah")}); err != nil {
		t.Fatal(err)
	}
	op := planSQL(t, p, `SELECT S.Name FROM States S, One O WHERE S.Name = O.Name`)
	if got := exec.Shape(op); got != "Project(Join(Scan,Scan))" {
		t.Errorf("single-row build side must stay nested-loop: %s", got)
	}
	if len(runPlan(t, op)) != 1 {
		t.Error("join rows")
	}
}

func TestPlanDistinctExistenceBecomesSemiJoin(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT DISTINCT S1.Name FROM States S1, States S2 WHERE S1.Capital = S2.Capital`)
	if got := exec.Shape(op); got != "Distinct(Project(Hash Semi Join(Scan,Scan)))" {
		t.Errorf("existence-only hash join should degrade to a semi-join: %s", got)
	}
	if len(runPlan(t, op)) != 3 {
		t.Error("semi-join rows")
	}
	// A projection that keeps right-side columns must keep the full join.
	op = planSQL(t, p, `SELECT DISTINCT S2.Name FROM States S1, States S2 WHERE S1.Capital = S2.Capital`)
	if got := exec.Shape(op); got != "Distinct(Project(Hash Join(Scan,Scan)))" {
		t.Errorf("projection needs the build side, no semi-join: %s", got)
	}
}

func TestPlanWebFetch(t *testing.T) {
	p := newPlanner(t)
	op := planSQL(t, p, `SELECT Content, Status FROM WebFetch WHERE URL = 'www.x.com'`)
	rows := runPlan(t, op)
	if len(rows) != 1 || rows[0][1].I != 200 {
		t.Fatalf("webfetch: %v", rows)
	}
	if !strings.Contains(rows[0][0].AsString(), "www.x.com") {
		t.Errorf("content: %v", rows[0])
	}
	// Unbound URL errors at plan time.
	planErr(t, p, `SELECT Content FROM WebFetch`)
}

// scanColumns lists, per scan of the plan in plan order, the columns it
// emits.
func scanColumns(op exec.Operator) []string {
	var out []string
	switch op.(type) {
	case *exec.TableScan, *exec.EVScan:
		names := make([]string, len(op.Schema().Cols))
		for i, c := range op.Schema().Cols {
			names[i] = c.Name
		}
		out = append(out, op.Describe()+"("+strings.Join(names, ",")+")")
	}
	for _, c := range op.Children() {
		out = append(out, scanColumns(c)...)
	}
	return out
}

// TestPlanPrunesUnreadColumns: the required-attributes pass narrows every
// scan to what the operators above it read — select list, predicates,
// sort, join and group keys, its own predicate, a later dependent join's
// bindings — plus one
// result field of a virtual table (the row count of a call travels as
// tuples) and one column of a stored table nothing is read from. SELECT *,
// DISTINCT over * and each term of a UNION keep what they produce.
func TestPlanPrunesUnreadColumns(t *testing.T) {
	p := newPlanner(t)
	for _, c := range []struct{ sql, want string }{
		{`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'scuba diving'`,
			"States(Name) WebCount(Count)"},
		{`SELECT Capital, T1 FROM States, WebCount WHERE Name = T1 AND Count > Population ORDER BY Capital`,
			"States(Name,Population,Capital) WebCount(T1,Count)"},
		{`SELECT Name FROM States, WebPages WHERE Name = T1 AND Rank <= 2`,
			"States(Name) WebPages(URL)"},
		{`SELECT Name, Date FROM States, WebPages WHERE Name = T1`,
			"States(Name) WebPages(Date)"},
		{`SELECT W.Count FROM States, WebPages P, WebCount W WHERE Name = P.T1 AND W.T1 = P.URL`,
			"States(Name) WebPages(URL) WebCount(Count)"},
		{`SELECT COUNT(*) FROM States`, "States(Name)"},
		{`SELECT Capital, COUNT(*) FROM States WHERE Population > 5 GROUP BY Capital`, "States [States.Population > 5](Population,Capital)"},
		{`SELECT S.Name FROM States S, States T WHERE S.Population = T.Population AND T.Capital <> 'x'`,
			"States S(Name,Population) States T [T.Capital <> 'x'](Population,Capital)"},
		{`SELECT * FROM States`, "States(Name,Population,Capital)"},
		{`SELECT DISTINCT * FROM States, WebCount WHERE Name = T1`,
			"States(Name,Population,Capital) WebCount(SearchExp,T1,T2,T3,T4,T5,T6,T7,T8,Count)"},
		{`SELECT DISTINCT Capital FROM States`, "States(Capital)"},
	} {
		if got := strings.Join(scanColumns(planSQL(t, p, c.sql)), " "); got != c.want {
			t.Errorf("%s\n  scans emit %s\n  want       %s", c.sql, got, c.want)
		}
	}
	u, err := sqlparse.Parse(`SELECT Name FROM States UNION SELECT * FROM States WHERE Population > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlanUnion(u.(*sqlparse.Union)); err == nil {
		t.Error("a union of a one-column and a three-column term planned")
	}
	u, err = sqlparse.Parse(`SELECT Name FROM States UNION SELECT Capital FROM States WHERE Population > 5`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := p.PlanUnion(u.(*sqlparse.Union))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(scanColumns(op), " "), "States(Name) States [States.Population > 5](Population,Capital)"; got != want {
		t.Errorf("union: scans emit %s, want %s", got, want)
	}
}

// newJoinPlanner adds two stored tables to newPlanner's States, so a FROM
// clause can be permuted: Cities(City, State, Pop) and Regions(State,
// Region), both keyed to States.Name.
func newJoinPlanner(t *testing.T) *Planner {
	t.Helper()
	p := newPlanner(t)
	cities, err := p.Cat.Create("Cities", []catalog.ColumnDef{
		{Name: "City", Type: schema.TString}, {Name: "State", Type: schema.TString}, {Name: "Pop", Type: schema.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []types.Tuple{
		{types.Str("Provo"), types.Str("Utah"), types.Int(115)},
		{types.Str("Ogden"), types.Str("Utah"), types.Int(87)},
		{types.Str("Ames"), types.Str("Iowa"), types.Int(66)},
		{types.Str("Akron"), types.Str("Ohio"), types.Int(190)},
		{types.Str("Dayton"), types.Str("Ohio"), types.Int(137)},
		{types.Str("Nowhere"), types.Null(), types.Int(500)},
	} {
		if _, err := cities.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	regions, err := p.Cat.Create("Regions", []catalog.ColumnDef{
		{Name: "State", Type: schema.TString}, {Name: "Region", Type: schema.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []types.Tuple{
		{types.Str("Utah"), types.Str("west")},
		{types.Str("Iowa"), types.Str("plains")},
		{types.Str("Ohio"), types.Str("east")},
		{types.Str("Ohio"), types.Str("lakes")},
	} {
		if _, err := regions.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestPlanSingleTableConjunctRunsInItsScan: a conjunct over one stored
// table's columns becomes that table's scan predicate wherever the table
// stands in FROM, a conjunct over two tables never does, and — stored
// tables only — the result multiset does not depend on the FROM order,
// which here decides between hash joins, nested loops and cross products.
func TestPlanSingleTableConjunctRunsInItsScan(t *testing.T) {
	p := newJoinPlanner(t)
	tables := []string{"States S", "Cities C", "Regions R"}
	var want map[string]int
	for _, perm := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		from := tables[perm[0]] + ", " + tables[perm[1]] + ", " + tables[perm[2]]
		op := planSQL(t, p, `SELECT S.Name, C.City, R.Region FROM `+from+`
			WHERE S.Name = C.State AND R.State = S.Name AND C.Pop > 100 AND S.Population > C.Pop + 2000 AND R.Region <> 'east'`)
		plan := exec.Explain(op)
		scans := strings.Join(scanColumns(op), " ")
		for _, s := range []string{"Cities C [C.Pop > 100](", "Regions R [R.Region <> 'east'](", "States S("} {
			if !strings.Contains(scans, s) {
				t.Errorf("FROM %s: no scan %q in %s", from, s, scans)
			}
		}
		if strings.Contains(plan, "Select:") {
			t.Errorf("FROM %s: a selection stayed outside the scans and joins:\n%s", from, plan)
		}
		for _, line := range strings.Split(plan, "\n") {
			if strings.Contains(line, "Scan:") && strings.Contains(line, "S.Population > ") {
				t.Errorf("FROM %s: the two-table conjunct landed on a scan: %s", from, line)
			}
		}
		if strings.Count(plan, "S.Population > (C.Pop + 2000)") != 1 {
			t.Errorf("FROM %s: the two-table conjunct is not on exactly one join:\n%s", from, plan)
		}
		got := make(map[string]int)
		for _, r := range runPlan(t, op) {
			got[r.String()]++
		}
		if want == nil {
			want = got
			if len(want) != 2 { // Ohio's Akron and Dayton with lakes; Utah and Iowa are too small
				t.Fatalf("FROM %s: rows %v", from, got)
			}
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("FROM %s: rows %v, FROM %s gave %v", from, got, strings.Join(tables, ", "), want)
		}
	}
}

// joinColumns lists, per nested-loop or hash join of the plan in plan
// order, the columns it emits.
func joinColumns(op exec.Operator) []string {
	var out []string
	switch op.(type) {
	case *exec.NestedLoopJoin, *exec.HashJoin:
		names := make([]string, len(op.Schema().Cols))
		for i, c := range op.Schema().Cols {
			names[i] = c.Name
		}
		out = append(out, op.Name()+"("+strings.Join(names, ",")+")")
	}
	for _, c := range op.Children() {
		out = append(out, joinColumns(c)...)
	}
	return out
}

// TestPlanJoinsEmitWhatIsReadAbove: the required-attributes pass hands
// each join the attributes in force above it, so a joined row holds those,
// what the join's own residual or predicate reads in it, and — the carrier
// rule — every column of a virtual-table scan below, with what a
// selection reading one reads: the asynchronous rewrite moves that
// selection and the scan's ReqSync above the join. Hash keys are read from
// the inputs and are not emitted for their own sake.
func TestPlanJoinsEmitWhatIsReadAbove(t *testing.T) {
	p := newJoinPlanner(t)
	for _, c := range []struct {
		sql, want string
		rows      int
	}{
		{`SELECT R.Region, COUNT(*), SUM(C.Pop) FROM Cities C, Regions R WHERE C.State = R.State AND C.Pop > 100 GROUP BY R.Region`,
			"Hash Join(Pop,Region)", 3},
		{`SELECT COUNT(*) FROM Cities C, Regions R WHERE C.State = R.State`, "Hash Join()", 1},
		{`SELECT COUNT(*) FROM Cities C, Regions R, States S`, "Cross-Product() Cross-Product()", 1},
		{`SELECT C.City FROM Cities C, States S WHERE C.State = S.Name AND S.Population > C.Pop + 2000`,
			"Hash Join(City,Pop,Population)", 4},
		{`SELECT C.City FROM Cities C, States S WHERE C.Pop + 2000 < S.Population`, "Join(City,Pop,Population)", 14},
		{`SELECT * FROM Cities C, Regions R WHERE C.State = R.State`, "Hash Join(City,State,Pop,State,Region)", 7},
		{`SELECT C.City FROM Cities C, WebCount W, Regions R WHERE W.T1 = C.City AND R.State = C.State`,
			"Hash Join(City,Count)", 7},
		{`SELECT C.City FROM Cities C, WebCount W, Regions R WHERE W.T1 = C.City AND W.Count > C.Pop AND R.State = C.State`,
			"Hash Join(City,Pop,Count)", 0},
	} {
		op := planSQL(t, p, c.sql)
		if got := strings.Join(joinColumns(op), " "); got != c.want {
			t.Errorf("%s\n  joins emit %s\n  want       %s", c.sql, got, c.want)
		}
		if rows := runPlan(t, op); len(rows) != c.rows {
			t.Errorf("%s\n  %d rows, want %d: %v", c.sql, len(rows), c.rows, rows)
		}
	}
	// COUNT(*) over joins that emit no column still counts every pair.
	for sql, want := range map[string]int64{
		`SELECT COUNT(*) FROM Cities C, Regions R WHERE C.State = R.State`: 7,
		`SELECT COUNT(*) FROM Cities C, Regions R, States S`:               6 * 4 * 3,
	} {
		if rows := runPlan(t, planSQL(t, p, sql)); len(rows) != 1 || rows[0][0].I != want {
			t.Errorf("%s = %v, want %d", sql, rows, want)
		}
	}
}
