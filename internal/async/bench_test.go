package async

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// BenchmarkPumpRoundTrip measures the pure overhead of register → run →
// await → take for a zero-work call: the cost asynchronous iteration adds
// on top of the network latency it hides.
func BenchmarkPumpRoundTrip(b *testing.B) {
	p := NewPump(64, 64, nil)
	defer p.Close()
	fn := func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(1)}}, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := p.RegisterCtx(context.Background(), "d", "k", fn)
		if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
			b.Fatal(err)
		}
		if _, ok := p.Take(id); !ok {
			b.Fatal("missing result")
		}
	}
}

// BenchmarkPumpBatch measures amortized throughput when many calls are in
// flight together (the WSQ steady state).
func BenchmarkPumpBatch(b *testing.B) {
	p := NewPump(64, 64, nil)
	defer p.Close()
	fn := func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(1)}}, nil
	}
	const batch = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make(map[types.CallID]bool, batch)
		for j := 0; j < batch; j++ {
			ids[p.RegisterCtx(context.Background(), "d", fmt.Sprintf("k%d", j), fn)] = true
		}
		for len(ids) > 0 {
			id, err := p.AwaitAnyCtx(context.Background(), ids)
			if err != nil {
				b.Fatal(err)
			}
			p.Take(id)
			delete(ids, id)
		}
	}
}

// BenchmarkPumpRoundDeepStack is a 50-call round whose engine call needs
// about 16 KiB of stack, as one reached over HTTP does (a recursive frame
// stands in for it): it shows what an execution goroutine pays to reach
// the engine — a stack grown by copying, for a goroutine started afresh.
func BenchmarkPumpRoundDeepStack(b *testing.B) {
	p := NewPump(0, 0, nil)
	defer p.Close()
	fn := func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(int64(deepStack(16)))}}, nil
	}
	const round = 50
	ctx := context.Background()
	ids := make(map[types.CallID]bool, round)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < round; j++ {
			ids[p.RegisterCtx(ctx, "d", "", fn)] = true
		}
		for len(ids) > 0 {
			id, err := p.AwaitAnyCtx(ctx, ids)
			if err != nil {
				b.Fatal(err)
			}
			p.Take(id)
			delete(ids, id)
		}
	}
}

// deepStack recurses n frames of about 1 KiB each.
//
//go:noinline
func deepStack(n int) int {
	var frame [1 << 10]byte
	frame[n%len(frame)] = byte(n)
	if n == 0 {
		return int(frame[0])
	}
	return deepStack(n-1) + int(frame[n%len(frame)])
}

// BenchmarkReqSyncPatch measures the buffering/patching machinery at zero
// latency: the "amount of work required by ReqSync" the paper lists as a
// potential cost (Section 4.5.4).
func BenchmarkReqSyncPatch(b *testing.B) {
	terms := make([]string, 200)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
	}
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pump := NewPump(64, 64, nil)
		rs, _ := buildCountPlan(terms, src, pump)
		rows, err := exec.Run(exec.NewContext(), rs)
		pump.Close() // its parked goroutines go home with it
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(terms) {
			b.Fatalf("rows: %d", len(rows))
		}
	}
}

// BenchmarkReqSyncExpansion measures tuple generation: every call returns
// 5 rows, so ReqSync clones each buffered tuple 4 times.
func BenchmarkReqSyncExpansion(b *testing.B) {
	terms := make([]string, 100)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%d", i)
	}
	src := &scriptedSource{name: "WP", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			out := make([]types.Tuple, 5)
			for i := range out {
				out[i] = types.Tuple{types.Int(int64(i))}
			}
			return out, nil
		}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pump := NewPump(64, 64, nil)
		rs, _ := buildCountPlan(terms, src, pump)
		rows, err := exec.Run(exec.NewContext(), rs)
		pump.Close() // its parked goroutines go home with it
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5*len(terms) {
			b.Fatalf("rows: %d", len(rows))
		}
	}
}

// BenchmarkRewrite measures the plan-rewriting pass itself on the Figure 6
// two-engine plan.
func BenchmarkRewrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pump := NewPump(4, 4, nil)
		term := strCol("Sigs", "Name")
		left := exec.NewValuesScan(schema.New(term), tuplesOf([]string{"a", "b", "c"}))
		ev1 := exec.NewEVScan(pagesSource("WP_AV", "av", 3), []expr.Expr{expr.NewColRef(term)}, pagesSchema("WP_AV"))
		dj1 := exec.NewDependentJoin(left, ev1, "")
		ev2 := exec.NewEVScan(pagesSource("WP_G", "g", 3), []expr.Expr{expr.NewColRef(term)}, pagesSchema("WP_G"))
		dj2 := exec.NewDependentJoin(dj1, ev2, "")
		b.StartTimer()
		got := Rewrite(dj2, pump)
		if _, ok := got.(*ReqSync); !ok {
			b.Fatal("rewrite shape")
		}
	}
}
