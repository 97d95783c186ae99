package async

import (
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// Helpers building the paper's plans by hand. Sources echo one input
// column; WebCount-style sources return [Count], WebPages-style return
// [URL, Rank].

func countSource(name, dest string) *scriptedSource {
	return &scriptedSource{name: name, dest: dest, numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)) * 7)}}, nil
		}}
}

func pagesSource(name, dest string, k int) *scriptedSource {
	return &scriptedSource{name: name, dest: dest, numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			var out []types.Tuple
			for i := 1; i <= k; i++ {
				out = append(out, types.Tuple{
					types.Str("www." + arg + "." + name + ".com"), types.Int(int64(i))})
			}
			return out, nil
		}}
}

func countSchema(alias string) *schema.Schema {
	return schema.New(strCol(alias, "Term"), intCol(alias, "Count"))
}

func pagesSchema(alias string) *schema.Schema {
	return schema.New(strCol(alias, "Term"), strCol(alias, "URL"), intCol(alias, "Rank"))
}

// figure3Input builds the Figure 2 plan: Sort(DJ(Scan(Sigs), EVScan(WebCount))).
func figure3Input(src *scriptedSource) (exec.Operator, *schema.Schema) {
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"SIGMOD", "SIGOPS", "SIGACT"}))
	out := countSchema("WebCount")
	ev := exec.NewEVScan(src, []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "Sigs.Name + WebCount.T1")
	srt := exec.NewSort(dj, []exec.SortKey{{Expr: expr.NewColRef(out.Cols[1]), Desc: true}})
	return srt, out
}

func TestRewriteFigure3(t *testing.T) {
	// Figure 2 (input) -> Figure 3 (rewritten): the ReqSync lands directly
	// below the Sort, because the Sort's key is the call-filled Count.
	pump := newPump(t, 8, 8, nil)
	in, _ := figure3Input(countSource("WebCount", "av"))
	got := Rewrite(in, pump)
	want := "Sort(ReqSync(Dependent Join(Values,AEVScan)))"
	if s := exec.Shape(got); s != want {
		t.Fatalf("shape = %s, want %s", s, want)
	}
	rows := runOp(t, got)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	// Sorted by Count desc: SIGMOD/SIGOPS (42) before SIGACT (42)... all
	// 6-letter sigs tie at 42; verify ordering is by count desc.
	for i := 1; i < len(rows); i++ {
		if rows[i-1][2].I < rows[i][2].I {
			t.Errorf("sort violated: %v", rows)
		}
	}
}

func TestRewriteFigure4(t *testing.T) {
	// Sigs |x| WebPages (Rank <= 3): single DJ over a multi-row source; the
	// rewritten plan is ReqSync(DJ(Scan, AEVScan)) and ReqSync performs
	// tuple generation (3 copies per sig).
	pump := newPump(t, 8, 8, nil)
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"SIGMOD", "SIGOPS"}))
	out := pagesSchema("WP")
	ev := exec.NewEVScan(pagesSource("WP", "av", 3), []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "")
	got := Rewrite(dj, pump)
	if s := exec.Shape(got); s != "ReqSync(Dependent Join(Values,AEVScan))" {
		t.Fatalf("shape = %s", s)
	}
	rows := runOp(t, got)
	if len(rows) != 6 { // "111 tuples are ultimately produced" scaled down
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
}

func TestRewriteFigure6TwoEngines(t *testing.T) {
	// Figure 6: Sigs |x| WP_AV |x| WP_Google. After insertion, percolation,
	// and consolidation there must be exactly ONE ReqSync at the top
	// managing both calls' attributes.
	pump := newPump(t, 16, 16, nil)
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"SIGMOD", "SIGOPS", "SIGACT"}))
	avOut := pagesSchema("WP_AV")
	gOut := pagesSchema("WP_Google")
	ev1 := exec.NewEVScan(pagesSource("WP_AV", "av", 3), []expr.Expr{expr.NewColRef(term)}, avOut)
	dj1 := exec.NewDependentJoin(left, ev1, "Sigs.Name + WP_AV.T1")
	ev2 := exec.NewEVScan(pagesSource("WP_Google", "g", 3), []expr.Expr{expr.NewColRef(term)}, gOut)
	dj2 := exec.NewDependentJoin(dj1, ev2, "Sigs.Name + WP_Google.T1")

	got := Rewrite(dj2, pump)
	want := "ReqSync(Dependent Join(Dependent Join(Values,AEVScan),AEVScan))"
	if s := exec.Shape(got); s != want {
		t.Fatalf("shape = %s, want %s", s, want)
	}
	rs := got.(*ReqSync)
	// The consolidated A set covers both scans' outputs (URL+Rank each).
	if len(rs.A) != 4 {
		t.Errorf("consolidated A has %d attrs, want 4", len(rs.A))
	}
	rows := runOp(t, got)
	// 3 sigs x 3 AV urls x 3 Google urls = 27 combinations.
	if len(rows) != 27 {
		t.Fatalf("want 27 rows, got %d", len(rows))
	}
	// Exactly 6 calls were registered (3 sigs x 2 engines), not 3 + 9.
	if reg := pump.Stats().Registered; reg != 6 {
		t.Errorf("registered calls = %d, want 6 (the paper's 74 scaled down)", reg)
	}
}

func TestRewriteFigure7CrossProductBetweenJoins(t *testing.T) {
	// Figure 7(a): Sigs |x| WC_AV x R |x| WC_Google with a single
	// consolidated ReqSync above everything.
	pump := newPump(t, 16, 16, nil)
	term := strCol("Sigs", "Name")
	sigs := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"SIGMOD", "SIGOPS"}))
	avOut := countSchema("WC_AV")
	ev1 := exec.NewEVScan(countSource("WC_AV", "av"), []expr.Expr{expr.NewColRef(term)}, avOut)
	dj1 := exec.NewDependentJoin(sigs, ev1, "")
	rcol := intCol("R", "V")
	r := exec.NewValuesScan(schema.New(rcol), []types.Tuple{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}})
	cross := exec.NewNestedLoopJoin(dj1, r, nil)
	gOut := countSchema("WC_Google")
	ev2 := exec.NewEVScan(countSource("WC_Google", "g"), []expr.Expr{expr.NewColRef(term)}, gOut)
	dj2 := exec.NewDependentJoin(cross, ev2, "")

	got := Rewrite(dj2, pump)
	want := "ReqSync(Dependent Join(Cross-Product(Dependent Join(Values,AEVScan),Values),AEVScan))"
	if s := exec.Shape(got); s != want {
		t.Fatalf("shape = %s, want %s", s, want)
	}
	rows := runOp(t, got)
	if len(rows) != 6 { // 2 sigs x 3 R rows
		t.Fatalf("rows: %d", len(rows))
	}
	// The cross-product duplicated incomplete AV tuples; each copy shares
	// the same AV call, and the Google side issues one call per cross row.
	if reg := pump.Stats().Registered; reg != 2+6 {
		t.Errorf("registered = %d, want 8 (2 AV + 6 Google)", reg)
	}
}

func TestRewriteFigure8BushyJoinBecomesSelectionOverCross(t *testing.T) {
	// Figure 8: a bushy plan whose top join predicate references
	// call-filled URLs. The rewriter must turn the join into a selection
	// over a cross-product and leave the selection above the ReqSync.
	pump := newPump(t, 16, 16, nil)
	sigTerm := strCol("Sigs", "Name")
	fieldTerm := strCol("CSFields", "Name")
	sigs := exec.NewValuesScan(schema.New(sigTerm), tuplesOf([]string{"SIGMOD", "SIGGRAPH"}))
	fields := exec.NewValuesScan(schema.New(fieldTerm), tuplesOf([]string{"databases", "graphics"}))

	sOut := pagesSchema("S")
	cOut := pagesSchema("C")
	// Both engines return overlapping URLs for equal-length terms so the
	// join result is non-empty: URL depends only on the term.
	urlSrc := func(name string) *scriptedSource {
		return &scriptedSource{name: name, dest: name, numEcho: 1,
			rows: func(arg string) ([]types.Tuple, error) {
				return []types.Tuple{
					{types.Str("www.shared.org/" + arg[:3]), types.Int(1)},
					{types.Str("www." + name + ".com/" + arg), types.Int(2)},
				}, nil
			}}
	}
	evS := exec.NewEVScan(urlSrc("S"), []expr.Expr{expr.NewColRef(sigTerm)}, sOut)
	djS := exec.NewDependentJoin(sigs, evS, "")
	evC := exec.NewEVScan(urlSrc("C"), []expr.Expr{expr.NewColRef(fieldTerm)}, cOut)
	djC := exec.NewDependentJoin(fields, evC, "")
	pred := expr.NewCmp(expr.EQ, expr.NewColRef(sOut.Cols[1]), expr.NewColRef(cOut.Cols[1]))
	join := exec.NewNestedLoopJoin(djS, djC, pred)

	got := Rewrite(join, pump)
	want := "Select(ReqSync(Cross-Product(Dependent Join(Values,AEVScan),Dependent Join(Values,AEVScan))))"
	if s := exec.Shape(got); s != want {
		t.Fatalf("shape = %s, want %s", s, want)
	}
	rows := runOp(t, got)
	// Shared URL matches: sig term prefix[:3] == field term prefix[:3]?
	// "SIGMOD"[:3]="SIG", "databases"[:3]="dat" — none match across; the
	// shared.org URLs match only when prefixes are equal, so expect 0 rows
	// unless names collide. Verify instead against a sequential baseline.
	base := runOp(t, rebuildFigure8Baseline())
	if len(rows) != len(base) {
		t.Fatalf("async (%d rows) and sync (%d rows) disagree", len(rows), len(base))
	}
}

// rebuildFigure8Baseline rebuilds the same Figure 8 plan with synchronous
// EVScans for result comparison.
func rebuildFigure8Baseline() exec.Operator {
	sigTerm := strCol("Sigs", "Name")
	fieldTerm := strCol("CSFields", "Name")
	sigs := exec.NewValuesScan(schema.New(sigTerm), tuplesOf([]string{"SIGMOD", "SIGGRAPH"}))
	fields := exec.NewValuesScan(schema.New(fieldTerm), tuplesOf([]string{"databases", "graphics"}))
	sOut := pagesSchema("S")
	cOut := pagesSchema("C")
	urlSrc := func(name string) *scriptedSource {
		return &scriptedSource{name: name, dest: name, numEcho: 1,
			rows: func(arg string) ([]types.Tuple, error) {
				return []types.Tuple{
					{types.Str("www.shared.org/" + arg[:3]), types.Int(1)},
					{types.Str("www." + name + ".com/" + arg), types.Int(2)},
				}, nil
			}}
	}
	evS := exec.NewEVScan(urlSrc("S"), []expr.Expr{expr.NewColRef(sigTerm)}, sOut)
	djS := exec.NewDependentJoin(sigs, evS, "")
	evC := exec.NewEVScan(urlSrc("C"), []expr.Expr{expr.NewColRef(fieldTerm)}, cOut)
	djC := exec.NewDependentJoin(fields, evC, "")
	pred := expr.NewCmp(expr.EQ, expr.NewColRef(sOut.Cols[1]), expr.NewColRef(cOut.Cols[1]))
	return exec.NewNestedLoopJoin(djS, djC, pred)
}

func TestRewriteClashingFilterHoisted(t *testing.T) {
	// A selection over call-filled Count clashes; the rewriter hoists it
	// and the ReqSync ends up below the hoisted selection.
	pump := newPump(t, 8, 8, nil)
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"SIGMOD", "SIGOPS", "SIGACT"}))
	out := countSchema("WC")
	ev := exec.NewEVScan(countSource("WC", "av"), []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "")
	filter := exec.NewFilter(dj, expr.NewCmp(expr.GT, expr.NewColRef(out.Cols[1]), expr.NewLiteral(types.Int(40))))

	got := Rewrite(filter, pump)
	if s := exec.Shape(got); s != "Select(ReqSync(Dependent Join(Values,AEVScan)))" {
		t.Fatalf("shape = %s", s)
	}
	rows := runOp(t, got)
	for _, r := range rows {
		if r[2].I <= 40 {
			t.Errorf("filter not applied: %v", r)
		}
	}
}

func TestRewriteNonClashingFilterPassed(t *testing.T) {
	// A selection on a stored column does NOT clash; ReqSync percolates
	// above it.
	pump := newPump(t, 8, 8, nil)
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"SIGMOD", "SIGOPS"}))
	out := countSchema("WC")
	ev := exec.NewEVScan(countSource("WC", "av"), []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "")
	filter := exec.NewFilter(dj, expr.NewCmp(expr.NE, expr.NewColRef(term), expr.NewLiteral(types.Str("x"))))

	got := Rewrite(filter, pump)
	if s := exec.Shape(got); s != "ReqSync(Select(Dependent Join(Values,AEVScan)))" {
		t.Fatalf("shape = %s", s)
	}
}

func TestRewriteAggregateClashes(t *testing.T) {
	// Aggregation must stay above ReqSync (clash case 3).
	pump := newPump(t, 8, 8, nil)
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"a", "bb"}))
	out := countSchema("WC")
	ev := exec.NewEVScan(countSource("WC", "av"), []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "")
	agg := exec.NewAggregate(dj, nil, nil, []exec.AggSpec{
		{Func: exec.AggSum, Arg: expr.NewColRef(out.Cols[1]), OutCol: intCol("", "total")},
	})
	got := Rewrite(agg, pump)
	if s := exec.Shape(got); s != "Aggregate(ReqSync(Dependent Join(Values,AEVScan)))" {
		t.Fatalf("shape = %s", s)
	}
	rows := runOp(t, got)
	if len(rows) != 1 || rows[0][0].I != 7+14 {
		t.Fatalf("aggregate result: %v", rows)
	}
}

func TestRewriteProjectClashOnComputedExpr(t *testing.T) {
	// Project computing Count/Population (Query 2) interprets the value ->
	// clash; ReqSync stays below the projection.
	pump := newPump(t, 8, 8, nil)
	term := strCol("States", "Name")
	pop := intCol("States", "Pop")
	left := exec.NewValuesScan(schema.New(term, pop), []types.Tuple{
		{types.Str("Utah"), types.Int(2)}, {types.Str("Iowa"), types.Int(4)},
	})
	out := countSchema("WC")
	ev := exec.NewEVScan(countSource("WC", "av"), []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "")
	ratio := schema.Column{ID: schema.NewAttrID(), Name: "C", Type: schema.TFloat}
	proj := exec.NewProject(dj,
		[]expr.Expr{expr.NewColRef(term), expr.NewArith(expr.Div, expr.NewColRef(out.Cols[1]), expr.NewColRef(pop))},
		schema.New(term, ratio))
	got := Rewrite(proj, pump)
	if s := exec.Shape(got); s != "Project(ReqSync(Dependent Join(Values,AEVScan)))" {
		t.Fatalf("shape = %s", s)
	}
	rows := runOp(t, got)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		if r[1].Kind != types.KindFloat {
			t.Errorf("computed ratio: %v", r)
		}
	}
}

func TestRewriteProjectClashOnDroppedAttr(t *testing.T) {
	// Projecting away a call-filled attribute breaks cancellation/
	// generation -> clash.
	pump := newPump(t, 8, 8, nil)
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"a"}))
	out := pagesSchema("WP")
	ev := exec.NewEVScan(pagesSource("WP", "av", 2), []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "")
	// Keep URL, drop Rank (a filled attribute).
	proj := exec.NewProject(dj,
		[]expr.Expr{expr.NewColRef(term), expr.NewColRef(out.Cols[1])},
		schema.New(term, out.Cols[1]))
	got := Rewrite(proj, pump)
	if s := exec.Shape(got); s != "Project(ReqSync(Dependent Join(Values,AEVScan)))" {
		t.Fatalf("shape = %s", s)
	}
	rows := runOp(t, got)
	if len(rows) != 2 {
		t.Fatalf("generation through clash: %v", rows)
	}
}

func TestRewritePassThroughProjectDoesNotClash(t *testing.T) {
	pump := newPump(t, 8, 8, nil)
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"a"}))
	out := countSchema("WC")
	ev := exec.NewEVScan(countSource("WC", "av"), []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "")
	// Keep Term and Count (all of A) as plain colrefs -> no clash.
	proj := exec.NewProject(dj,
		[]expr.Expr{expr.NewColRef(term), expr.NewColRef(out.Cols[1])},
		schema.New(term, out.Cols[1]))
	got := Rewrite(proj, pump)
	if s := exec.Shape(got); s != "ReqSync(Project(Dependent Join(Values,AEVScan)))" {
		t.Fatalf("shape = %s", s)
	}
}

func TestRewriteLimitClashes(t *testing.T) {
	pump := newPump(t, 8, 8, nil)
	term := strCol("Sigs", "Name")
	left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"a", "b", "c"}))
	out := pagesSchema("WP")
	ev := exec.NewEVScan(pagesSource("WP", "av", 2), []expr.Expr{expr.NewColRef(term)}, out)
	dj := exec.NewDependentJoin(left, ev, "")
	lim := exec.NewLimit(dj, 2)
	got := Rewrite(lim, pump)
	if s := exec.Shape(got); s != "Limit(ReqSync(Dependent Join(Values,AEVScan)))" {
		t.Fatalf("shape = %s", s)
	}
	rows := runOp(t, got)
	if len(rows) != 2 {
		t.Fatalf("limit rows: %d", len(rows))
	}
}

// TestRewriteEquivalence: for a battery of plans, the rewritten plan must
// produce exactly the same multiset of tuples as the sequential plan.
func TestRewriteEquivalence(t *testing.T) {
	build := func(async bool, pump *Pump) exec.Operator {
		term := strCol("Sigs", "Name")
		left := exec.NewValuesScan(schema.New(term),
			tuplesOf([]string{"SIGMOD", "SIGOPS", "SIGACT", "SIGCHI", "SIGIR"}))
		wpOut := pagesSchema("WP")
		wcOut := countSchema("WC")
		evp := exec.NewEVScan(pagesSource("WP", "av", 2), []expr.Expr{expr.NewColRef(term)}, wpOut)
		dj1 := exec.NewDependentJoin(left, evp, "")
		evc := exec.NewEVScan(countSource("WC", "g"), []expr.Expr{expr.NewColRef(term)}, wcOut)
		dj2 := exec.NewDependentJoin(dj1, evc, "")
		f := exec.NewFilter(dj2, expr.NewCmp(expr.GT, expr.NewColRef(wcOut.Cols[1]), expr.NewLiteral(types.Int(0))))
		srt := exec.NewSort(f, []exec.SortKey{
			{Expr: expr.NewColRef(term)},
			{Expr: expr.NewColRef(wpOut.Cols[2])},
		})
		if async {
			return Rewrite(srt, pump)
		}
		return srt
	}
	syncRows := runOp(t, build(false, nil))
	pump := newPump(t, 16, 16, nil)
	asyncRows := runOp(t, build(true, pump))
	if len(syncRows) != len(asyncRows) {
		t.Fatalf("row counts differ: sync %d async %d", len(syncRows), len(asyncRows))
	}
	key := func(rows []types.Tuple) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.Key()
		}
		sort.Strings(out)
		return out
	}
	sk, ak := key(syncRows), key(asyncRows)
	for i := range sk {
		if sk[i] != ak[i] {
			t.Fatalf("multisets differ at %d:\n sync %s\nasync %s", i, sk[i], ak[i])
		}
	}
}

func TestConsolidateMergesChains(t *testing.T) {
	// Three stacked ReqSyncs collapse into one with the union A.
	pump := newPump(t, 4, 4, nil)
	a := intCol("T", "A")
	scan := exec.NewValuesScan(schema.New(a), nil)
	id1, id2, id3 := schema.NewAttrID(), schema.NewAttrID(), schema.NewAttrID()
	rs := NewReqSync(NewReqSync(NewReqSync(scan, pump, map[schema.AttrID]bool{id1: true}),
		pump, map[schema.AttrID]bool{id2: true}), pump, map[schema.AttrID]bool{id3: true})
	got := consolidate(rs)
	top, ok := got.(*ReqSync)
	if !ok {
		t.Fatalf("not a ReqSync: %T", got)
	}
	if _, isRS := top.Child.(*ReqSync); isRS {
		t.Fatal("chain not fully consolidated")
	}
	if len(top.A) != 3 {
		t.Errorf("A union: %v", top.A)
	}
}
