//go:build goexperiment.synctest

package harness

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/exec"
	"repro/internal/search"
	"repro/internal/sqlparse"
)

// waveLatency makes every engine call take exactly one second, so an
// ablation's wall time in seconds is the number of latency waves its calls
// needed: the quantity each design knob is meant to move.
var waveLatency = search.LatencyModel{Base: time.Second, CountFactor: 1}

// ablationRow is one measured execution.
type ablationRow struct {
	name       string
	calls      int   // engine calls that reached an engine
	registered int64 // pump registrations
	coalesced  int64 // registrations that joined an identical call in flight
	peak       int   // most calls the pump had in flight at once
	wall       time.Duration
}

// ablation measures statements, one after another, on one environment.
type ablation struct {
	t    *testing.T
	env  *Env
	rec  *recorder
	rows []ablationRow
}

// measure runs one statement in the given mode on the reset environment
// and adds its row. run, when non-nil, executes it instead of
// DB.QueryContext.
func (a *ablation) measure(name, q string, asyncMode bool, run func() error) error {
	a.env.ResetBetweenRuns()
	a.env.DB.SetAsync(asyncMode)
	a.rec.take()
	start := time.Now()
	var err error
	if run != nil {
		err = run()
	} else {
		_, err = a.env.DB.QueryContext(context.Background(), q)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r := ablationRow{name: name, calls: len(a.rec.take()), wall: time.Since(start)}
	st := a.env.DB.Pump().Stats()
	r.registered, r.coalesced, r.peak = st.Registered, st.Coalesced, st.MaxActive
	// With every call one second long and the pump work-conserving, the
	// calls pack into ceil(calls/peak) full waves: the critical-path floor.
	if r.peak == 0 || r.wall != time.Duration((r.calls+r.peak-1)/r.peak)*time.Second {
		a.t.Errorf("%s: %d calls at peak %d took %v, want ceil(calls/peak) seconds", name, r.calls, r.peak, r.wall)
	}
	a.rows = append(a.rows, r)
	return nil
}

func (a *ablation) exec(stmts ...string) error {
	for _, stmt := range stmts {
		if _, err := a.env.DB.ExecContext(context.Background(), stmt); err != nil {
			return err
		}
	}
	return nil
}

func formatAblations(rows []ablationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %6s %11s %10s %5s %9s\n", "ablation (1 s per call)", "calls", "registered", "coalesced", "peak", "wall (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %6d %11d %10d %5d %9.0f\n", r.name, r.calls, r.registered, r.coalesced, r.peak, r.wall.Seconds())
	}
	return b.String()
}

// TestAblationsFakeTime measures the design choices the paper discusses,
// one row per execution at one second per engine call, and compares the
// table with testdata/ablations.txt byte for byte:
//
//   - Figure 7(a): a cross product below the dependent join repeats each
//     WebCount call |R| = 3 times, cache off and on;
//   - the pump limit (total and per destination) on one Template 1 query;
//   - percolation: the full rewrite against ReqSync pinned at its
//     insertion point;
//   - Figure 8's bushy URL intersection and one Section 4.2 crawler round,
//     synchronous against asynchronous.
//
// Every row must also take exactly ceil(calls/peak) seconds: its calls in
// full waves of as many as the pump ran at once.
func TestAblationsFakeTime(t *testing.T) {
	var rows []ablationRow
	add := func(opts Options, f func(a *ablation) error) {
		opts.Latency = waveLatency
		inBubble(t, opts, func(env *Env, rec *recorder) error {
			a := &ablation{t: t, env: env, rec: rec}
			err := f(a)
			rows = append(rows, a.rows...)
			return err
		})
	}

	const fig7 = `SELECT S.Name, R.V, Count FROM Sigs S, R, WebCount WHERE S.Name = T1`
	for _, cache := range []int{0, 4096} {
		name := "figure 7 cross product, cache off"
		if cache > 0 {
			name = "figure 7 cross product, cache on"
		}
		add(Options{CacheSize: cache}, func(a *ablation) error {
			if err := a.exec(`CREATE TABLE R (V INT)`, `INSERT INTO R VALUES (1), (2), (3)`); err != nil {
				return err
			}
			return a.measure(name, fig7, true, nil)
		})
	}

	q1, _ := Template(1, "computer", "")
	for _, limit := range []int{1, 4, 16, 64} {
		add(Options{MaxConcurrentCalls: limit, MaxCallsPerDest: limit}, func(a *ablation) error {
			return a.measure(fmt.Sprintf("template 1, pump limit %d", limit), q1, true, nil)
		})
	}

	add(Options{}, func(a *ablation) error {
		sel, err := sqlparse.ParseSelect(`SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1 AND T2 = 'Knuth'`)
		if err != nil {
			return err
		}
		for _, full := range []bool{false, true} {
			name, rewrite := "percolation off (insertion only)", async.RewriteInsertOnly
			if full {
				name, rewrite = "percolation on (full rewrite)", async.Rewrite
			}
			err := a.measure(name, "", false, func() error {
				op, err := a.env.DB.Plan(sel)
				if err != nil {
					return err
				}
				_, err = exec.Run(exec.NewContext(), rewrite(op, a.env.DB.Pump()))
				return err
			})
			if err != nil {
				return err
			}
		}

		const fig8 = `SELECT S.URL FROM Sigs, WebPages S, CSFields, WebPages C
		              WHERE Sigs.Name = S.T1 AND CSFields.Name = C.T1
		                AND S.Rank <= 5 AND C.Rank <= 5 AND S.URL = C.URL`
		if err := a.measure("figure 8 bushy intersection, sync", fig8, false, nil); err != nil {
			return err
		}
		if err := a.measure("figure 8 bushy intersection, async", fig8, true, nil); err != nil {
			return err
		}

		// The crawler's frontier: each state's top URL.
		if err := a.exec(`CREATE TABLE Frontier (URL VARCHAR)`); err != nil {
			return err
		}
		a.env.DB.SetAsync(true)
		seeds, err := a.env.DB.QueryContext(context.Background(), `SELECT URL FROM States, WebPages WHERE Name = T1 AND Rank <= 1`)
		if err != nil {
			return err
		}
		frontier, _ := a.env.DB.Catalog().Get("Frontier")
		for _, r := range seeds.Rows {
			if _, err := frontier.Insert(r); err != nil {
				return err
			}
		}
		const crawl = `SELECT F.URL, Status FROM Frontier F, WebFetch WHERE F.URL = WebFetch.URL`
		if err := a.measure("crawler round, sync", crawl, false, nil); err != nil {
			return err
		}
		return a.measure("crawler round, async", crawl, true, nil)
	})

	checkGolden(t, "ablations.txt", formatAblations(rows))
}

// paperAsync is the asynchronous column of the paper's Table 1, in
// seconds: template 1 run 1 and 2, template 2, template 3.
var paperAsync = [6]float64{3.88, 3.5, 5.25, 5.13, 6.25, 4.63}

// TestPumpLimitSweep runs Table 1's asynchronous column at the paper's
// latency under per-destination limits of 4, 8, 16 and 32 calls (64 in
// all) and compares the table with testdata/limit_sweep.txt. Its last
// column is the distance from the paper's asynchronous column: the
// geometric mean, over the six cells, of the factor between the two.
func TestPumpLimitSweep(t *testing.T) {
	var b strings.Builder
	row := func(label string, c [6]float64) {
		fmt.Fprintf(&b, "%-15s %5.2f/%5.2f %5.2f/%5.2f %5.2f/%5.2f", label, c[0], c[1], c[2], c[3], c[4], c[5])
	}
	fmt.Fprintf(&b, "%-15s %11s %11s %11s %9s\n", "per-dest limit", "T1 async", "T2 async", "T3 async", "vs paper")
	row("paper (1999)", paperAsync)
	b.WriteString("\n")
	nearest, nearestGap := 0, math.Inf(1)
	for _, limit := range []int{4, 8, 16, 32} {
		var cells [6]float64
		inBubble(t, Options{Latency: search.PaperLatency(), MaxCallsPerDest: limit}, func(env *Env, rec *recorder) error {
			for tmpl := 1; tmpl <= 3; tmpl++ {
				for run := 1; run <= 2; run++ {
					queries, err := TemplateQueries(tmpl, run, 8)
					if err != nil {
						return err
					}
					walls, err := TimedRun(context.Background(), env, queries, true)
					if err != nil {
						return err
					}
					cells[2*tmpl+run-3] = mean(walls).Seconds()
				}
			}
			return nil
		})
		var logGap float64
		for i, c := range cells {
			logGap += math.Abs(math.Log(c / paperAsync[i]))
		}
		gap := math.Exp(logGap / 6)
		if gap < nearestGap {
			nearest, nearestGap = limit, gap
		}
		row(fmt.Sprint(limit), cells)
		fmt.Fprintf(&b, " %8.2fx\n", gap)
	}
	fmt.Fprintf(&b, "nearest the paper: per-destination limit %d, %.2fx away\n", nearest, nearestGap)
	checkGolden(t, "limit_sweep.txt", b.String())
}
