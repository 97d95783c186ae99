package async

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// drainKeeping pulls op dry in batches of batch tuples, keeping every
// tuple it is handed and, beside it, what the tuple read when it was
// handed out.
func drainKeeping(t *testing.T, op exec.Operator, batch int) (kept []types.Tuple, seen []string) {
	t.Helper()
	ctx := exec.NewContext()
	ctx.BatchSize = batch
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for {
		b, ok, err := op.NextBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, tu := range b {
			kept = append(kept, tu)
			seen = append(seen, tu.String())
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return kept, seen
}

// TestBindRoundScratchNeverReachesAnEmittedTuple: an AEVScan cuts a
// BindBatch round's tuples from storage its next round overwrites, and the
// dependent join above copies them out at once. Over an outer side of many
// rounds — duplicate keys, a cache warm for some keys and cold for the
// others, keys of zero, one and two rows — every tuple the join hands out
// must still read, when the consumer has pulled the last, what it read
// when it was handed out; under a ReqSync, which buffers the whole child
// before it releases a tuple, the rows must be those the source scripts.
func TestBindRoundScratchNeverReachesAnEmittedTuple(t *testing.T) {
	rowsOf := func(arg string) []types.Tuple {
		n, _ := strconv.Atoi(strings.TrimPrefix(arg, "t"))
		out := make([]types.Tuple, n%3)
		for i := range out {
			out[i] = types.Tuple{types.Str(fmt.Sprintf("%s#%d", arg, i))}
		}
		return out
	}
	src := &scriptedSource{name: "S", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) { return rowsOf(arg), nil }}
	for _, batch := range []int{1, 3, 256} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(batch)))
			terms := make([]string, 700) // three rounds at the largest batch
			var want []types.Tuple
			for i := range terms {
				terms[i] = fmt.Sprintf("t%d", rng.Intn(90))
				for _, r := range rowsOf(terms[i]) {
					want = append(want, types.Tuple{types.Str(terms[i]), types.Str(terms[i]), r[0]})
				}
			}
			// A fresh pump per plan, its cache warm for every key below t60.
			plan := func(synced bool) exec.Operator {
				cache := &fifoCache{cap: 1000, m: map[string][]types.Tuple{}}
				for k := 0; k < 60; k++ {
					cache.Put(fmt.Sprintf("S|t%d", k), rowsOf(fmt.Sprintf("t%d", k)))
				}
				pump := newPump(t, 4, 4, cache)
				termCol := strCol("L", "Term")
				aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)},
					schema.New(strCol("V", "Term"), strCol("V", "Val")), pump)
				dj := exec.NewDependentJoin(exec.NewValuesScan(schema.New(termCol), tuplesOf(terms)), aev, "")
				if synced {
					return syncOver(dj, pump, aev.FilledAttrs())
				}
				return dj
			}

			kept, seen := drainKeeping(t, plan(false), batch)
			if len(kept) == 0 {
				t.Fatal("the join emitted nothing")
			}
			for i, tu := range kept {
				if got := tu.String(); got != seen[i] {
					t.Fatalf("tuple %d of %d reads %s at the end, %s when it was handed out", i, len(kept), got, seen[i])
				}
			}

			kept, _ = drainKeeping(t, plan(true), batch)
			if got, want := multiset(kept), multiset(want); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("rows under the ReqSync\n%v\nwant\n%v", got, want)
			}
		})
	}
}

// TestOpenTuplesSurviveAReopen: the tuples an Open leaves to be pulled go
// to whatever parent pulls them, so they are cut from fresh storage — a
// tuple pulled from one Open must not change when the scan is closed and
// opened again under another binding, with a cache hit or a registered
// call.
func TestOpenTuplesSurviveAReopen(t *testing.T) {
	cache := &fifoCache{cap: 16, m: map[string][]types.Tuple{
		"S|a": {{types.Str("a#0")}, {types.Str("a#1")}},
		"S|b": {{types.Str("b#0")}, {types.Str("b#1")}},
	}}
	pump := newPump(t, 4, 4, cache)
	src := &scriptedSource{name: "S", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) { return nil, nil }}
	termCol := strCol("L", "Term")
	aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)},
		schema.New(strCol("V", "Term"), strCol("V", "Val")), pump)
	ctx := exec.NewContext()
	var kept []types.Tuple
	var seen []string
	for _, term := range []string{"a", "b", "c", "a"} {
		ctx.Env.PushFrame([]schema.Column{termCol}, types.Tuple{types.Str(term)})
		if err := aev.Open(ctx); err != nil {
			t.Fatal(err)
		}
		ctx.Env.PopFrame()
		for {
			b, ok, err := aev.NextBatch(ctx, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for _, tu := range b {
				kept, seen = append(kept, tu), append(seen, tu.String())
			}
		}
		if err := aev.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(kept) != 7 {
		t.Fatalf("%d tuples from four Opens, want 2+2+1+2", len(kept))
	}
	for i, tu := range kept {
		if got := tu.String(); got != seen[i] {
			t.Errorf("tuple %d reads %s after the re-opens, %s when it was pulled", i, got, seen[i])
		}
	}
	pump.Discard(ctx.PumpCalls...)
}
