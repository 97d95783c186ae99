package plan

import (
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

func estimate(t *testing.T, p *Planner, sql string, m CostModel) Estimate {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	op, err := p.PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	return EstimatePlan(op, m)
}

func TestEstimateCallCounts(t *testing.T) {
	p := newPlanner(t) // 3 states
	m := DefaultCostModel()
	// One WebCount call per state.
	e := estimate(t, p, `SELECT Name, Count FROM States, WebCount WHERE Name = T1`, m)
	if e.ExternalCalls != 3 {
		t.Errorf("calls = %g, want 3", e.ExternalCalls)
	}
	if e.Cardinality != 3 {
		t.Errorf("card = %g, want 3 (WebCount fanout 1)", e.Cardinality)
	}
	// WebPages fanout = rank limit.
	e = estimate(t, p, `SELECT Name, URL FROM States, WebPages WHERE Name = T1 AND Rank <= 5`, m)
	if e.ExternalCalls != 3 {
		t.Errorf("calls = %g", e.ExternalCalls)
	}
	if e.Cardinality != 15 {
		t.Errorf("card = %g, want 15 (3 states x rank 5)", e.Cardinality)
	}
	// A selection run inside the scan thins the bindings as the Select
	// above the scan used to.
	e = estimate(t, p, `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND Population > 2500`, m)
	if want := 3 * cmpSelectivity; e.ExternalCalls != want {
		t.Errorf("calls under a scan predicate = %g, want %g", e.ExternalCalls, want)
	}
}

func TestEstimateFigure7Hazard(t *testing.T) {
	// A cross-product BELOW the second dependent join multiplies its calls
	// by |R| — the estimator must expose the hazard the paper's Figure 7
	// discusses.
	p := newPlanner(t)
	mustCreateR(t, p)
	m := DefaultCostModel()
	good := estimate(t, p,
		`SELECT Name FROM States, WebCount C1, R, WebCount C2 WHERE Name = C1.T1 AND Name = C2.T1`, m)
	// C1: 3 calls. Cross with R (3 rows) -> 9 tuples. C2: 9 calls. Total 12.
	if good.ExternalCalls != 12 {
		t.Errorf("calls = %g, want 12 (3 + 3x3)", good.ExternalCalls)
	}
	better := estimate(t, p,
		`SELECT Name FROM States, WebCount C1, WebCount C2, R WHERE Name = C1.T1 AND Name = C2.T1`, m)
	if better.ExternalCalls != 6 {
		t.Errorf("calls = %g, want 6 (cross-product last)", better.ExternalCalls)
	}
	if better.SyncLatency >= good.SyncLatency {
		t.Errorf("estimator should prefer the cross-product-last plan: %v vs %v",
			better.SyncLatency, good.SyncLatency)
	}
}

func mustCreateR(t *testing.T, p *Planner) {
	t.Helper()
	tab, err := p.Cat.Create("R", []catalog.ColumnDef{{Name: "V", Type: schema.TInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := tab.Insert(types.Tuple{types.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEstimateAsyncWaves(t *testing.T) {
	p := newPlanner(t)
	m := DefaultCostModel()
	m.MaxConcurrent = 2
	m.CallLatency = 100 * time.Millisecond
	m.CountFactor = 1
	e := estimate(t, p, `SELECT Name, Count FROM States, WebCount WHERE Name = T1`, m)
	// 3 calls, limit 2 -> 2 waves of 100ms.
	if e.SyncLatency != 300*time.Millisecond {
		t.Errorf("sync latency: %v", e.SyncLatency)
	}
	if e.AsyncLatency != 200*time.Millisecond {
		t.Errorf("async latency: %v (want 2 waves)", e.AsyncLatency)
	}
	if e.Improvement < 1.4 || e.Improvement > 1.6 {
		t.Errorf("improvement: %.2f", e.Improvement)
	}
}

func TestEstimateHandlesRewrittenPlans(t *testing.T) {
	p := newPlanner(t)
	sel, err := sqlparse.ParseSelect(`SELECT Name, Count FROM States, WebCount WHERE Name = T1`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := p.PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultCostModel()
	before := EstimatePlan(op, m)
	pump := async.NewPump(8, 8, nil)
	after := EstimatePlan(async.Rewrite(op, pump), m)
	// The rewrite changes when calls run, not how many.
	if before.ExternalCalls != after.ExternalCalls {
		t.Errorf("rewrite changed call estimate: %g -> %g", before.ExternalCalls, after.ExternalCalls)
	}
	if before.Cardinality != after.Cardinality {
		t.Errorf("rewrite changed cardinality estimate: %g -> %g", before.Cardinality, after.Cardinality)
	}
}

func TestEstimatePredictionMatchesExecution(t *testing.T) {
	// The estimator's call-count prediction must match the executor's
	// actual behavior for dependent-join plans.
	p := newPlanner(t)
	sel, _ := sqlparse.ParseSelect(`SELECT Name, Count FROM States, WebCount WHERE Name = T1`)
	op, err := p.PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	est := EstimatePlan(op, DefaultCostModel())
	ctx := exec.NewContext()
	rows, err := exec.Run(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if float64(ctx.Stats.ExternalCalls) != est.ExternalCalls {
		t.Errorf("predicted %g calls, executed %d", est.ExternalCalls, ctx.Stats.ExternalCalls)
	}
	if float64(len(rows)) != est.Cardinality {
		t.Errorf("predicted %g rows, got %d", est.Cardinality, len(rows))
	}
}
