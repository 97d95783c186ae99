package async

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// scriptedSource is an ExternalSource with per-argument scripted results
// and an optional per-call delay.
type scriptedSource struct {
	name    string
	dest    string
	numEcho int
	delay   time.Duration
	rows    func(arg string) ([]types.Tuple, error)
	mu      sync.Mutex
	calls   int
}

func (s *scriptedSource) Name() string        { return s.name }
func (s *scriptedSource) Destination() string { return s.dest }
func (s *scriptedSource) NumEcho() int        { return s.numEcho }
func (s *scriptedSource) AppendKey(buf []byte, args []types.Value) []byte {
	return append(append(append(buf, s.name...), '|'), args[0].AsString()...)
}
func (s *scriptedSource) Call(key string) func() ([]types.Tuple, error) {
	arg := strings.TrimPrefix(key, s.name+"|")
	return func() ([]types.Tuple, error) {
		s.mu.Lock()
		s.calls++
		s.mu.Unlock()
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		return s.rows(arg)
	}
}

func strCol(table, name string) schema.Column {
	return schema.Column{ID: schema.NewAttrID(), Table: table, Name: name, Type: schema.TString}
}

func intCol(table, name string) schema.Column {
	return schema.Column{ID: schema.NewAttrID(), Table: table, Name: name, Type: schema.TInt}
}

// buildCountPlan constructs DependentJoin(Values(terms), AEVScan(src)) with
// a ReqSync on top — the hand-built Figure 3 plan.
func buildCountPlan(terms []string, src *scriptedSource, pump *Pump) (*ReqSync, *schema.Schema) {
	termCol := strCol("L", "Term")
	left := exec.NewValuesScan(schema.New(termCol), tuplesOf(terms))
	out := schema.New(strCol("V", "Term"), intCol("V", "Count"))
	aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)}, out, pump)
	dj := exec.NewDependentJoin(left, aev, "")
	return syncOver(dj, pump, aev.FilledAttrs()), dj.Schema()
}

// reusedWindows is the producer the pull contract allows and no operator
// is yet: every window it hands out is overwritten with sentinel tuples
// before it produces the next, so a ReqSync that reads a window after its
// next pull — loop carried, or through a field — buffers sentinels and
// fails the test it runs in. It is the async half of the exec contract
// harness's leaf (internal/exec/contract_test.go, property 6).
type reusedWindows struct {
	exec.Operator
	window exec.Batch
}

func (r *reusedWindows) NextBatch(ctx *exec.Context, max int) (exec.Batch, bool, error) {
	for i, t := range r.window {
		stale := make(types.Tuple, len(t))
		for j := range stale {
			stale[j] = types.Str("<stale window>")
		}
		r.window[i] = stale
	}
	b, ok, err := r.Operator.NextBatch(ctx, max)
	r.window = append(exec.Batch(nil), b...)
	return r.window, ok, err
}

// syncOver is NewReqSync over a child that reuses its windows.
func syncOver(child exec.Operator, pump *Pump, a map[schema.AttrID]bool) *ReqSync {
	return NewReqSync(&reusedWindows{Operator: child}, pump, a)
}

func tuplesOf(ss []string) []types.Tuple {
	out := make([]types.Tuple, len(ss))
	for i, s := range ss {
		out[i] = types.Tuple{types.Str(s)}
	}
	return out
}

func runOp(t *testing.T, op exec.Operator) []types.Tuple {
	t.Helper()
	rows, err := exec.Run(exec.NewContext(), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// ---------------------------------------------------------------------------
// AEVScan

func TestAEVScanEmitsPlaceholderTuple(t *testing.T) {
	pump := newPump(t, 4, 4, nil)
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	out := schema.New(strCol("V", "Term"), intCol("V", "Count"))
	aev := NewAEVScan(src, []expr.Expr{expr.NewLiteral(types.Str("abc"))}, out, pump)
	ctx := exec.NewContext()
	if err := aev.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b, ok, err := aev.NextBatch(ctx, 8)
	if err != nil || !ok || len(b) != 1 {
		t.Fatalf("NextBatch: len=%d ok=%v err=%v, want one tuple", len(b), ok, err)
	}
	tup := b[0]
	if tup[0].AsString() != "abc" {
		t.Errorf("echoed arg: %v", tup)
	}
	if !tup[1].IsPlaceholder() || tup[1].Field() != 0 {
		t.Errorf("output should be a placeholder: %v", tup)
	}
	// Exactly one tuple ("we always begin by assuming that exactly one
	// tuple joins").
	if _, ok, _ := aev.NextBatch(ctx, 8); ok {
		t.Error("AEVScan must emit exactly one tuple")
	}
	if err := aev.Close(); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.ExternalCalls != 1 {
		t.Errorf("external calls: %d", ctx.Stats.ExternalCalls)
	}
}

func TestAEVScanFilledAttrs(t *testing.T) {
	pump := newPump(t, 4, 4, nil)
	out := schema.New(strCol("V", "Term"), intCol("V", "Count"))
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1, rows: nil}
	aev := NewAEVScan(src, nil, out, pump)
	a := aev.FilledAttrs()
	if len(a) != 1 || !a[out.Cols[1].ID] {
		t.Errorf("FilledAttrs = %v", a)
	}
}

// ---------------------------------------------------------------------------
// ReqSync: patch (1 row), cancel (0 rows), expand (n rows)

func TestReqSyncPatchesSingleRow(t *testing.T) {
	pump := newPump(t, 8, 8, nil)
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1, delay: 5 * time.Millisecond,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	rs, _ := buildCountPlan([]string{"a", "bb", "ccc"}, src, pump)
	rows := runOp(t, rs)
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		if r.HasPlaceholder() {
			t.Fatalf("unpatched tuple: %v", r)
		}
		if r[2].I != int64(len(r[0].AsString())) {
			t.Errorf("patched value wrong: %v", r)
		}
	}
}

func TestReqSyncCancelsZeroRowTuples(t *testing.T) {
	pump := newPump(t, 8, 8, nil)
	src := &scriptedSource{name: "WP", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			if arg == "none" {
				return nil, nil // Section 4.3 case 1: delete the tuple
			}
			return []types.Tuple{{types.Int(1)}}, nil
		}}
	rs, _ := buildCountPlan([]string{"x", "none", "y"}, src, pump)
	rows := runOp(t, rs)
	if len(rows) != 2 {
		t.Fatalf("cancellation failed: %v", rows)
	}
	for _, r := range rows {
		if r[0].AsString() == "none" {
			t.Errorf("canceled tuple leaked: %v", r)
		}
	}
}

func TestReqSyncExpandsMultiRowResults(t *testing.T) {
	pump := newPump(t, 8, 8, nil)
	src := &scriptedSource{name: "WP", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			// Section 4.3 case 3: n result rows -> n-1 extra copies.
			var out []types.Tuple
			for i := 1; i <= len(arg); i++ {
				out = append(out, types.Tuple{types.Int(int64(i))})
			}
			return out, nil
		}}
	rs, _ := buildCountPlan([]string{"abc", "z"}, src, pump)
	rows := runOp(t, rs)
	if len(rows) != 4 { // 3 for "abc" + 1 for "z"
		t.Fatalf("expansion: got %d rows: %v", len(rows), rows)
	}
	counts := map[string][]int64{}
	for _, r := range rows {
		counts[r[0].AsString()] = append(counts[r[0].AsString()], r[2].I)
	}
	if len(counts["abc"]) != 3 || len(counts["z"]) != 1 {
		t.Errorf("per-term expansion: %v", counts)
	}
}

// TestReqSyncMultipleCallsPerTuple reproduces Section 4.4: a tuple holding
// placeholders for two different calls; the first completion expands the
// tuple and its copies must retain (and later resolve) the second call's
// placeholders.
func TestReqSyncMultipleCallsPerTuple(t *testing.T) {
	pump := newPump(t, 8, 8, nil)
	termCol := strCol("L", "Term")
	left := exec.NewValuesScan(schema.New(termCol), tuplesOf([]string{"sig"}))

	// First call (AV): 3 rows, slow. Second call (Google): 2 rows, fast.
	av := &scriptedSource{name: "AV", dest: "av", numEcho: 1, delay: 30 * time.Millisecond,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(101)}, {types.Int(102)}, {types.Int(103)}}, nil
		}}
	g := &scriptedSource{name: "G", dest: "g", numEcho: 1, delay: 1 * time.Millisecond,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(201)}, {types.Int(202)}}, nil
		}}
	avOut := schema.New(strCol("AV", "Term"), intCol("AV", "Val"))
	gOut := schema.New(strCol("G", "Term"), intCol("G", "Val"))
	aev1 := NewAEVScan(av, []expr.Expr{expr.NewColRef(termCol)}, avOut, pump)
	dj1 := exec.NewDependentJoin(left, aev1, "")
	aev2 := NewAEVScan(g, []expr.Expr{expr.NewColRef(termCol)}, gOut, pump)
	dj2 := exec.NewDependentJoin(dj1, aev2, "")
	a := aev1.FilledAttrs()
	for id := range aev2.FilledAttrs() {
		a[id] = true
	}
	rs := syncOver(dj2, pump, a)

	rows := runOp(t, rs)
	// Cartesian of 3 AV rows x 2 G rows for the single sig.
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d: %v", len(rows), rows)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.HasPlaceholder() {
			t.Fatalf("unpatched: %v", r)
		}
		key := fmt.Sprintf("%d/%d", r[2].I, r[4].I)
		if seen[key] {
			t.Errorf("duplicate combination %s", key)
		}
		seen[key] = true
	}
	for _, avV := range []int{101, 102, 103} {
		for _, gV := range []int{201, 202} {
			if !seen[fmt.Sprintf("%d/%d", avV, gV)] {
				t.Errorf("missing combination %d/%d", avV, gV)
			}
		}
	}
}

// TestReqSyncMultiCallCancellation: one of a tuple's two calls returns zero
// rows after the other already expanded it — every copy must be canceled.
func TestReqSyncMultiCallCancellation(t *testing.T) {
	pump := newPump(t, 8, 8, nil)
	termCol := strCol("L", "Term")
	left := exec.NewValuesScan(schema.New(termCol), tuplesOf([]string{"sig"}))
	fast := &scriptedSource{name: "F", dest: "f", numEcho: 1,
		rows: func(string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(1)}, {types.Int(2)}}, nil
		}}
	slowEmpty := &scriptedSource{name: "S", dest: "s", numEcho: 1, delay: 30 * time.Millisecond,
		rows: func(string) ([]types.Tuple, error) { return nil, nil }}
	fOut := schema.New(strCol("F", "Term"), intCol("F", "Val"))
	sOut := schema.New(strCol("S", "Term"), intCol("S", "Val"))
	aev1 := NewAEVScan(fast, []expr.Expr{expr.NewColRef(termCol)}, fOut, pump)
	dj1 := exec.NewDependentJoin(left, aev1, "")
	aev2 := NewAEVScan(slowEmpty, []expr.Expr{expr.NewColRef(termCol)}, sOut, pump)
	dj2 := exec.NewDependentJoin(dj1, aev2, "")
	a := aev1.FilledAttrs()
	for id := range aev2.FilledAttrs() {
		a[id] = true
	}
	rs := syncOver(dj2, pump, a)
	rows := runOp(t, rs)
	if len(rows) != 0 {
		t.Fatalf("all tuples should cancel, got %v", rows)
	}
}

func TestReqSyncPassThroughCompleteTuples(t *testing.T) {
	// Tuples without placeholders flow through untouched.
	pump := newPump(t, 4, 4, nil)
	a := intCol("T", "A")
	scan := exec.NewValuesScan(schema.New(a), []types.Tuple{{types.Int(1)}, {types.Int(2)}})
	rs := syncOver(scan, pump, nil)
	rows := runOp(t, rs)
	if len(rows) != 2 {
		t.Errorf("pass-through rows: %v", rows)
	}
}

func TestReqSyncErrorFromCall(t *testing.T) {
	pump := newPump(t, 4, 4, nil)
	src := &scriptedSource{name: "E", dest: "d", numEcho: 1,
		rows: func(string) ([]types.Tuple, error) { return nil, fmt.Errorf("boom") }}
	rs, _ := buildCountPlan([]string{"a"}, src, pump)
	if _, err := exec.Run(exec.NewContext(), rs); err == nil {
		t.Fatal("call error must propagate")
	}
}

func TestReqSyncConcurrencyBeatsSequential(t *testing.T) {
	// The headline claim: N high-latency calls complete in ~1 round trip.
	const n = 12
	const lat = 30 * time.Millisecond
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
	}
	mk := func() *scriptedSource {
		return &scriptedSource{name: "WC", dest: "d", numEcho: 1, delay: lat,
			rows: func(arg string) ([]types.Tuple, error) {
				return []types.Tuple{{types.Int(1)}}, nil
			}}
	}
	// Async.
	pump := newPump(t, 64, 64, nil)
	rs, _ := buildCountPlan(terms, mk(), pump)
	start := time.Now()
	rows := runOp(t, rs)
	asyncTime := time.Since(start)
	if len(rows) != n {
		t.Fatalf("rows: %d", len(rows))
	}
	if asyncTime > time.Duration(n)*lat/3 {
		t.Errorf("async took %v; calls apparently not overlapped (sequential would be %v)",
			asyncTime, time.Duration(n)*lat)
	}
}

// TestReqSyncPatchesSlabBackedRowsInPlace: a hash join below the ReqSync
// cuts its joined rows — placeholders included — from one shared slab, and
// the ReqSync patches each in place as its call settles. A patch must
// reach its own row only: every row ends up with its own call's result,
// whatever the batch size, and with expansion copies (Section 4.3) beside
// the originals.
func TestReqSyncPatchesSlabBackedRowsInPlace(t *testing.T) {
	var terms []string
	var tags []types.Tuple
	for i := 0; i < 40; i++ {
		term := strings.Repeat("x", i+1)
		terms = append(terms, term)
		tags = append(tags, types.Tuple{types.Str(term), types.Int(int64(100 + i))})
	}
	for _, size := range []int{1, 3, 256} {
		pump := newPump(t, 8, 8, nil)
		src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
			rows: func(arg string) ([]types.Tuple, error) {
				rows := []types.Tuple{{types.Int(int64(len(arg)))}}
				if len(arg)%5 == 0 {
					rows = append(rows, types.Tuple{types.Int(int64(-len(arg)))})
				}
				return rows, nil
			}}
		termCol := strCol("L", "Term")
		out := schema.New(strCol("V", "Term"), intCol("V", "Count"))
		aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)}, out, pump)
		dj := exec.NewDependentJoin(exec.NewValuesScan(schema.New(termCol), tuplesOf(terms)), aev, "")
		tagTerm := strCol("T", "Term")
		hj := exec.NewHashJoin(dj, exec.NewValuesScan(schema.New(tagTerm, intCol("T", "Tag")), tags),
			[]expr.Expr{expr.NewColRef(termCol)}, []expr.Expr{expr.NewColRef(tagTerm)}, nil)
		ctx := exec.NewContext()
		ctx.BatchSize = size
		rows, err := exec.Run(ctx, syncOver(hj, pump, aev.FilledAttrs()))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 48 {
			t.Fatalf("batch %d: %d rows, want 40 + 8 expansions", size, len(rows))
		}
		for _, r := range rows {
			// <Term, V.Term, Count, T.Term, Tag>
			n := int64(len(r[0].S))
			if r.HasPlaceholder() || r[1].S != r[0].S || r[3].S != r[0].S || r[4].I != 99+n || (r[2].I != n && (n%5 != 0 || r[2].I != -n)) {
				t.Fatalf("batch %d: row %v is not its own call's result", size, r)
			}
		}
		pump.Close()
	}
}

// TestSyncedTreeReopensAfterClose is the exec contract harness's re-open
// rule (internal/exec/contract_test.go, property 2) for the two operators of
// this package: a ReqSync over a dependent join into an AEVScan, after Open →
// drain → Close and after Open → a partial pull → Close with calls still
// pending, yields under a fresh context the rows of its first run — without
// a cache, where every run registers every call again, and with one, where
// the later runs are answered at registration — and leaves the pump empty.
func TestSyncedTreeReopensAfterClose(t *testing.T) {
	terms := []string{"abc", "none", "z", "abc", "zz"}
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			var cache exec.ResultCache
			if cached {
				cache = &fifoCache{cap: 3, m: map[string][]types.Tuple{}}
			}
			pump := NewPump(2, 2, cache)
			defer pump.Close()
			src := &scriptedSource{name: "WP", dest: "d", numEcho: 1, delay: time.Millisecond,
				rows: func(arg string) ([]types.Tuple, error) {
					if arg == "none" {
						return nil, nil
					}
					out := make([]types.Tuple, len(arg))
					for i := range out {
						out[i] = types.Tuple{types.Int(int64(i))}
					}
					return out, nil
				}}
			rs, _ := buildCountPlan(terms, src, pump)
			run := func() []string {
				ctx := exec.NewContext()
				rows, err := exec.Run(ctx, rs)
				pump.Discard(ctx.PumpCalls...)
				if err != nil {
					t.Fatal(err)
				}
				return multiset(rows)
			}
			want := run()
			if len(want) != 3+1+3+2 {
				t.Fatalf("first run: %v", want)
			}
			// pull -1 drains; the others stop after one NextBatch of that size.
			for _, pull := range []int{-1, 1, 2} {
				ctx := exec.NewContext()
				ctx.BatchSize = 2 // several BindBatch rounds
				if err := rs.Open(ctx); err != nil {
					t.Fatalf("pull %d: Open: %v", pull, err)
				}
				for {
					_, ok, err := rs.NextBatch(ctx, max(pull, 1))
					if err != nil {
						t.Fatalf("pull %d: NextBatch: %v", pull, err)
					}
					if !ok || pull > 0 {
						break
					}
				}
				if err := rs.Close(); err != nil {
					t.Fatalf("pull %d: Close: %v", pull, err)
				}
				pump.Discard(ctx.PumpCalls...)
				if got := run(); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("re-open after Close (pull %d): rows\n%v\nwant\n%v", pull, got, want)
				}
			}
			pump.Quiesce()
			if held := pump.Held(); held != 0 {
				t.Errorf("%d call records held after every run was closed and discarded", held)
			}
		})
	}
}
