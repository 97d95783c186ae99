package main

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// benchExecCell is one batch-size point of the -sweep-exec ablation.
type benchExecCell struct {
	BatchSize  int     `json:"batch_size"`
	Rows       int     `json:"rows"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// SpeedupVsB1 is this point's throughput relative to batch size 1
	// (one protocol call per tuple).
	SpeedupVsB1 float64 `json:"speedup_vs_batch1"`
}

// sweepExec ablates the executor's batch granularity on a purely local
// pipeline — Filter over a hash equi-join of two generated tables — so the
// measured difference is protocol dispatch overhead, not external-call
// latency. Batch size 1 degenerates to tuple-at-a-time iteration.
func sweepExec(rows int) {
	build := rows / 64
	if build < 1 {
		build = 1
	}
	lk, lp := intColumn("L", "K"), intColumn("L", "P")
	rk, rp := intColumn("R", "K"), intColumn("R", "P")
	lrows := make([]types.Tuple, rows)
	for i := 0; i < rows; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % build)), types.Int(int64(i % 97))}
	}
	rrows := make([]types.Tuple, build)
	for i := 0; i < build; i++ {
		rrows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 89))}
	}
	// Probe-heavy join under a filter/project pipeline: the hash build is
	// tiny, so elapsed time is dominated by per-batch operator dispatch —
	// the quantity this sweep charts.
	out := schema.New(intColumn("O", "P"))
	plan := exec.NewProject(
		exec.NewFilter(
			exec.NewHashJoin(
				exec.NewValuesScan(schema.New(lk, lp), lrows),
				exec.NewValuesScan(schema.New(rk, rp), rrows),
				[]expr.Expr{expr.NewColRef(lk)},
				[]expr.Expr{expr.NewColRef(rk)}, nil),
			expr.NewCmp(expr.NE, expr.NewColRef(lp), expr.NewColRef(rp))),
		[]expr.Expr{expr.NewColRef(lp)}, out)

	fmt.Printf("executor batch-size sweep: %d-row probe x %d-row build equi-join + filter + project\n\n", rows, build)
	var cells []benchExecCell
	var baseRate float64
	for _, size := range []int{1, 64, 256} {
		best := time.Duration(1<<63 - 1)
		var out int
		for rep := 0; rep < 3; rep++ {
			ctx := exec.NewContext()
			ctx.BatchSize = size
			start := time.Now()
			res, err := exec.Run(ctx, plan)
			if err != nil {
				fatal(err)
			}
			if el := time.Since(start); el < best {
				best = el
			}
			out = len(res)
		}
		rate := float64(out) / best.Seconds()
		cell := benchExecCell{
			BatchSize: size, Rows: out,
			ElapsedMS:  float64(best.Microseconds()) / 1000.0,
			RowsPerSec: rate,
		}
		if baseRate == 0 {
			baseRate = rate
		}
		cell.SpeedupVsB1 = rate / baseRate
		cells = append(cells, cell)
		fmt.Printf("batch=%4d  %8.1f ms  %12.0f rows/s  %5.2fx\n",
			size, cell.ElapsedMS, rate, cell.SpeedupVsB1)
	}
	writeReport(benchReport{Mode: "sweep-exec", Exec: cells})
}

// intColumn mirrors the test fixtures' column helper.
func intColumn(table, name string) schema.Column {
	return schema.Column{ID: schema.NewAttrID(), Table: table, Name: name, Type: schema.TInt}
}
