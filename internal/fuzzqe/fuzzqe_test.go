package fuzzqe

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// TestFuzzSmoke is the tier-1 differential run: a seeded,
// coverage-steered stream of generated queries, each executed under all
// four plan regimes and checked against the offline ground truth. Any
// divergence is a real engine (or model) bug; the failure message carries
// the full SQL so it can be minimized with wsqfuzz.
func TestFuzzSmoke(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 40
	}
	env, err := NewTempEnv(7)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	g := NewGen(env, 11)
	cov := NewCoverage()
	r := &Runner{Env: env}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		spec, sig := g.NextSteered(cov, 4)
		if sig != "" {
			cov.Record(sig)
		}
		d, err := r.RunOne(ctx, spec)
		if err != nil {
			t.Fatalf("query %d harness error: %v", i, err)
		}
		if d != nil {
			t.Fatalf("query %d: %s", i, d.Error())
		}
	}
	if b := cov.Buckets(); b < n/10 {
		t.Errorf("coverage steering found only %d plan shapes in %d queries", b, n)
	}
}

// TestCorpusReplay replays the checked-in regression corpus: queries that
// historically diverged (or hung the rewrite) before their fixes, each
// minimized while preserving its async plan shape. See each file's note
// field for provenance.
func TestCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty regression corpus: testdata/*.json missing")
	}
	env, err := NewTempEnv(7)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	r := &Runner{Env: env}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			blob, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var spec QuerySpec
			if err := json.Unmarshal(blob, &spec); err != nil {
				t.Fatal(err)
			}
			d, err := r.RunOne(context.Background(), &spec)
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			if d != nil {
				t.Fatalf("%s\nnote: %s", d.Error(), spec.Note)
			}
		})
	}
}

// TestMutationSelfTest checks the fuzzer can actually catch the bugs it
// exists for. Each mutation re-introduces one into every async plan, and
// the harness must flag a divergence within a bounded number of queries,
// with the shrinker reducing the catch to a small repro:
//
//   - clash: the percolation clash the rewrite exists to prevent — a
//     clashing selection pushed back below its ReqSync, where it evaluates
//     placeholder values;
//   - first-hit-row: a cache hit answered at registration emits only the
//     first row of a multi-row cached result (only the warm variant has
//     hits, so only it can catch this);
//   - pruned-filter-column: column pruning forgets the predicate of a
//     selection that percolation later hoists above the ReqSync, so the
//     scans below drop columns the selection reads;
//   - join-cuts-carrier: column pruning forgets the carrier rule, so a join
//     below a ReqSync cuts the columns it fills and the placeholders of the
//     calls never reach it;
//   - distinct-keeps-seen: an operator keeps state across Close → Open, so
//     the tree's first execution is right and only the re-run of it, which
//     is every execution but the first of a statement text in core, is not.
func TestMutationSelfTest(t *testing.T) {
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			env, err := NewTempEnv(7)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			min, caught := catchAndShrink(t, env, m.mutate)
			if m.rerunOnly && !strings.HasSuffix(caught.Variant, "-rerun") {
				t.Errorf("caught in %s, a tree's first execution, where the mutation does nothing", caught.Variant)
			}
			if len(min.Joins) > 3 {
				t.Errorf("shrunk repro still has %d joins: %s", len(min.Joins), min.SQL())
			}
			// The unmutated engine must be clean on the shrunk query — the
			// divergence belongs to the mutation, not the engine.
			clean := &Runner{Env: env}
			if d, err := clean.RunOne(context.Background(), min); err != nil || d != nil {
				t.Fatalf("shrunk repro diverges without the mutation: %v %v", err, d)
			}
		})
	}
}

var mutations = []struct {
	name      string
	mutate    func(exec.Operator) exec.Operator
	rerunOnly bool // wrong only from a tree's second execution on
}{
	{"clash", pushClashingFilterBelowRS, false},
	{"first-hit-row", emitFirstHitRowOnly, false},
	{"pruned-filter-column", pruneHoistedFilterColumns, false},
	{"join-cuts-carrier", cutCarriersAtJoins, false},
	{"distinct-keeps-seen", keepSeenAcrossOpens, true},
}

// catchAndShrink runs the seed-99 query stream under mutate until the
// harness flags a divergence — within 1 000 queries, or the test fails —
// and returns the query shrunk while it still diverges the same way, and
// the divergence first caught.
func catchAndShrink(t *testing.T, env *Env, mutate func(exec.Operator) exec.Operator) (*QuerySpec, *Divergence) {
	t.Helper()
	g := NewGen(env, 99)
	r := &Runner{Env: env, Mutate: mutate}
	ctx := context.Background()
	var caught *Divergence
	for i := 0; i < 1000 && caught == nil; i++ {
		d, err := r.RunOne(ctx, g.Next())
		if err != nil {
			t.Fatalf("query %d harness error: %v", i, err)
		}
		caught = d
	}
	if caught == nil {
		t.Fatal("mutation not caught within 1000 queries")
	}
	return Shrink(caught.Spec, func(cand *QuerySpec) bool {
		d, err := r.RunOne(ctx, cand)
		return err == nil && d != nil && d.Kind == caught.Kind && d.Variant == caught.Variant
	}), caught
}

// pushClashingFilterBelowRS is the clash mutation: wherever a clashing
// selection rests directly above a ReqSync (the position percolation's
// hoisting produces), swap the two so the selection evaluates placeholder
// tuples below the synchronization point.
func pushClashingFilterBelowRS(op exec.Operator) exec.Operator {
	if f, ok := op.(*exec.Filter); ok {
		if rs, ok2 := f.Children()[0].(*async.ReqSync); ok2 && expr.References(f.Pred, rs.A) {
			f.SetChild(0, rs.Children()[0])
			rs.SetChild(0, f)
			return rs
		}
	}
	for i, c := range op.Children() {
		op.SetChild(i, pushClashingFilterBelowRS(c))
	}
	return op
}

// firstHitRow is an AEVScan whose batch rounds keep one row per binding. A
// registered call has one, its placeholder tuple; a hit loses the rest.
type firstHitRow struct{ *async.AEVScan }

func (w firstHitRow) BindBatch(ctx *exec.Context, cols []schema.Column, outer []types.Tuple) ([][]types.Tuple, error) {
	rows, err := w.AEVScan.BindBatch(ctx, cols, outer)
	for i, rs := range rows {
		if len(rs) > 1 {
			rows[i] = rs[:1]
		}
	}
	return rows, err
}

// emitFirstHitRowOnly is the first-hit-row mutation.
func emitFirstHitRowOnly(op exec.Operator) exec.Operator {
	for i, c := range op.Children() {
		if scan, ok := c.(*async.AEVScan); ok {
			op.SetChild(i, firstHitRow{scan})
		} else {
			emitFirstHitRowOnly(c)
		}
	}
	return op
}

// pruneHoistedFilterColumns is the pruned-filter-column mutation: below
// every selection hoisted onto a ReqSync, the scans are narrowed as if
// nothing read the selection's columns.
func pruneHoistedFilterColumns(op exec.Operator) exec.Operator {
	if f, ok := op.(*exec.Filter); ok {
		if rs, ok2 := f.Child.(*async.ReqSync); ok2 && expr.References(f.Pred, rs.A) {
			pruneScans(rs, expr.Attrs(f.Pred))
		}
	}
	for _, c := range op.Children() {
		pruneHoistedFilterColumns(c)
	}
	return op
}

// pruneScans narrows every scan under op to its columns not in drop.
func pruneScans(op exec.Operator, drop map[schema.AttrID]bool) {
	need := make(map[schema.AttrID]bool)
	for _, col := range op.Schema().Cols {
		need[col.ID] = !drop[col.ID]
	}
	switch scan := op.(type) {
	case *exec.TableScan:
		scan.Prune(need)
	case *async.AEVScan:
		scan.Prune(need)
	}
	for _, c := range op.Children() {
		pruneScans(c, drop)
	}
}

// cutCarriersAtJoins is the join-cuts-carrier mutation: every join below a
// ReqSync is narrowed as if nothing above it read the attributes the
// ReqSync fills.
func cutCarriersAtJoins(op exec.Operator) exec.Operator {
	if rs, ok := op.(*async.ReqSync); ok {
		cutAtJoins(rs.Child, rs.A)
	}
	for _, c := range op.Children() {
		cutCarriersAtJoins(c)
	}
	return op
}

// cutAtJoins narrows every join under op to its columns not in drop.
func cutAtJoins(op exec.Operator, drop map[schema.AttrID]bool) {
	if j, ok := op.(interface {
		Narrow(map[schema.AttrID]bool)
	}); ok {
		need := make(map[schema.AttrID]bool)
		for _, col := range op.Schema().Cols {
			need[col.ID] = !drop[col.ID]
		}
		j.Narrow(need)
	}
	for _, c := range op.Children() {
		cutAtJoins(c, drop)
	}
}

// keepsSeen is a Distinct that never forgets a tuple it has emitted: what
// exec.Distinct would be if Open did not start a new table.
type keepsSeen struct {
	*exec.Distinct
	seen map[string]bool
}

func (w keepsSeen) NextBatch(ctx *exec.Context, max int) (exec.Batch, bool, error) {
	for {
		b, ok, err := w.Distinct.NextBatch(ctx, max)
		if err != nil || !ok {
			return nil, false, err
		}
		out := make(exec.Batch, 0, len(b))
		for _, t := range b {
			if k := EncodeRow(t); !w.seen[k] {
				w.seen[k] = true
				out = append(out, t)
			}
		}
		if len(out) > 0 {
			return out, true, nil
		}
	}
}

// keepSeenAcrossOpens is the distinct-keeps-seen mutation.
func keepSeenAcrossOpens(op exec.Operator) exec.Operator {
	for i, c := range op.Children() {
		op.SetChild(i, keepSeenAcrossOpens(c))
	}
	if d, ok := op.(*exec.Distinct); ok {
		return keepsSeen{d, map[string]bool{}}
	}
	return op
}

// TestShrinkFixpoint: with an always-true keep, the shrinker must reach
// the minimal skeleton — no joins (web joins cascading away with the
// dimension columns they bind to), no filters, a single projected column,
// and a collapsed Id range.
func TestShrinkFixpoint(t *testing.T) {
	v := int64(100)
	spec := &QuerySpec{
		IDLo: 10, IDHi: 90,
		Joins: []Join{
			{Kind: JoinMovie, Alias: "m"},
			{Kind: JoinWebPages, Alias: "w1", Engine: "G", BindCol: "m.Mk", RankLimit: 3},
			{Kind: JoinWebCount, Alias: "w2", Engine: "AV", BindCol: "w1.URL"},
		},
		Filters:  []Filter{{Col: "m.Len", Op: "<", IntVal: &v}},
		Distinct: true,
		Proj:     []string{"m.Len", "w2.Count", "f.Id"},
		OrderBy:  []OrderKey{{Col: "f.Id"}},
	}
	min := Shrink(spec, func(*QuerySpec) bool { return true })
	if len(min.Joins) != 0 || len(min.Filters) != 0 || len(min.OrderBy) != 0 || min.Distinct {
		t.Errorf("not minimal: %+v", min)
	}
	if len(min.Proj) != 1 || min.IDLo != min.IDHi {
		t.Errorf("projection/range not minimal: %s", min.SQL())
	}
}

// TestShrinkCascade: dropping a dimension join must cascade over the web
// joins bound to its columns and everything referencing them.
func TestShrinkCascade(t *testing.T) {
	spec := &QuerySpec{
		IDLo: 0, IDHi: 9,
		Joins: []Join{
			{Kind: JoinMovie, Alias: "m"},
			{Kind: JoinWebPages, Alias: "w1", Engine: "G", BindCol: "m.Mk", RankLimit: 1},
			{Kind: JoinWebCount, Alias: "w2", Engine: "AV", BindCol: "w1.URL"},
		},
		Proj: []string{"w2.Count"},
	}
	cand := dropJoin(spec, 0)
	if len(cand.Joins) != 0 {
		t.Errorf("cascade left joins behind: %+v", cand.Joins)
	}
	if len(cand.Proj) != 1 || cand.Proj[0] != "f.Id" {
		t.Errorf("projection not repaired: %v", cand.Proj)
	}
}

// TestRegenCorpus rebuilds the regression corpus under testdata/. It is
// skipped unless FUZZQE_REGEN=1: the corpus is a checked-in artifact, and
// regeneration is only needed when the generator or the corpus recipe
// changes. Each entry is a query that exposed a real bug during the
// fuzzer's development, minimized while preserving its async-rewritten
// plan shape (so the regression keeps exercising the code path that
// broke), then verified divergence-free on the fixed engine.
func TestRegenCorpus(t *testing.T) {
	if os.Getenv("FUZZQE_REGEN") == "" {
		t.Skip("set FUZZQE_REGEN=1 to rebuild testdata/")
	}
	env, err := NewTempEnv(7)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	// Historical catches from the seed-42 stream, by generation index.
	wanted := map[int]struct{ name, note string }{
		1: {"settle-carrier-drop",
			"a stored-side join below the ReqSync drops every carrier of some calls, so fewer calls settle than were issued; caught the naive settled==issued model"},
		33: {"pin-url-binding",
			"w2.T1 = w1.URL makes the second dependent join's bindings depend on a pending call, pinning the ReqSync cluster below it"},
		46: {"web-eq-hash-key",
			"equi conjunct w2.URL = m.Mk becomes a hash-join key referencing a web column, forcing the join-to-selection-over-cross-product fallback"},
		271: {"stacked-clashing-filters",
			"two clashing selections stacked on one ReqSync; percolation hoisted them through each other forever (rewrite hang, fixed by hoisting the stack top)"},
	}
	g := NewGen(env, 42)
	specs := map[string]*QuerySpec{}
	for i := 0; i <= 271; i++ {
		s := g.Next()
		if w, ok := wanted[i]; ok {
			s.Note = w.note
			specs[w.name] = s
		}
	}

	// The pin-blocked-hoist catch came from a steered seed-1 run; its
	// minimized form is embedded directly.
	specs["pin-blocked-hoist"] = &QuerySpec{
		IDLo: 82, IDHi: 82,
		Joins: []Join{
			{Kind: JoinMovie, Alias: "m"},
			{Kind: JoinWebPages, Alias: "w1", Engine: "AV", BindCol: "m.Mk", RankLimit: 1},
			{Kind: JoinWebCount, Alias: "w2", Engine: "AV", BindCol: "w1.URL"},
		},
		Filters: []Filter{{Col: "f.Tk", Op: "<=", RCol: "w1.Date"}},
		Proj:    []string{"m.Len"},
		Note: "percolation hoisted a clashing selection above a dependent join that pins the ReqSync, " +
			"issuing web calls for rows the selection should have eliminated first (calls divergence, fixed by blocksReqSync)",
	}

	// Also from a steered seed-1 run: a unit whose referenced web join is
	// pinned BELOW the unit's own entry — the values are real by the time
	// the unit applies, so it must not be treated as deferred.
	specs["pin-settles-below-entry"] = &QuerySpec{
		IDLo: 41, IDHi: 41,
		Joins: []Join{
			{Kind: JoinWebPages, Alias: "w1", Engine: "G", BindCol: "f.Tk", RankLimit: 1},
			{Kind: JoinWebPages, Alias: "w2", Engine: "AV", BindCol: "w1.URL", RankLimit: 1},
			{Kind: JoinState, Alias: "s"},
		},
		Filters: []Filter{{Col: "s.Cap", Op: ">", RCol: "w1.URL"}},
		Proj:    []string{"f.Id"},
		Note: "s.Cap > w1.URL sits above the dependent join that pins w1's ReqSync, so it filters real " +
			"values inline; caught the plan model deferring every web-referencing unit to its settlement site",
	}

	// The self-test's catches of the two mutations that need a cached
	// multi-row hit and a hoisted selection over a pruned scan. They are
	// already minimal for what they exercise: shrinking them further by
	// plan shape alone would lower the rank limit to a one-row result.
	selfTest := map[string]bool{"hit-multi-row": true, "hoisted-filter-column": true}
	specs["hit-multi-row"], _ = catchAndShrink(t, env, emitFirstHitRowOnly)
	specs["hit-multi-row"].Note = "a WebPages call answered from the result cache with several rows: the warm variant's " +
		"second run must emit every one of them at registration (self-test mutation first-hit-row keeps only the first)"
	specs["hoisted-filter-column"], _ = catchAndShrink(t, env, pruneHoistedFilterColumns)
	specs["hoisted-filter-column"].Note = "a selection hoisted above the ReqSync reads columns of the scans below it: the " +
		"required-attributes pass must keep them (self-test mutation pruned-filter-column drops them)"

	r := &Runner{Env: env}
	ctx := context.Background()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for name, spec := range specs {
		origSig, err := env.Signature(spec)
		if err != nil {
			t.Fatalf("%s: signature: %v", name, err)
		}
		min := spec
		if !selfTest[name] {
			min = Shrink(spec, func(cand *QuerySpec) bool {
				sig, err := env.Signature(cand)
				if err != nil || sig != origSig {
					return false
				}
				d, err := r.RunOne(ctx, cand)
				return err == nil && d == nil
			})
		}
		if d, err := r.RunOne(ctx, min); err != nil || d != nil {
			t.Fatalf("%s: minimized corpus entry not clean: %v %v", name, err, d)
		}
		blob, err := json.MarshalIndent(min, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", name+".json")
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s", path, min.SQL())
	}
}
