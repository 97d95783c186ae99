package plan

import (
	"time"

	"repro/internal/async"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vtab"
)

// The paper leaves "fully addressing cost-based query optimization in the
// presence of asynchronous iteration" to future work, but enumerates what
// such a model must capture (Section 4.5.4): the number of external calls a
// plan issues, how many of them asynchronous iteration can overlap, the
// buffering/patching work ReqSync adds, and the extra work optimistic
// execution performs when results are ultimately canceled.
//
// CostModel + EstimatePlan implement that model at the granularity the
// paper reasons at: expected cardinalities per operator, expected external
// calls, and predicted wall-clock latency under sequential vs asynchronous
// execution. The estimator is advisory — the engine never prunes plans with
// it — but it quantifies exactly the tradeoffs of Figures 7 and 8, and its
// predictions are validated against measured runtimes in the test suite.

// CostModel parameterizes plan cost estimation.
type CostModel struct {
	// CallLatency is the expected latency of one external call.
	CallLatency time.Duration
	// CountFactor scales WebCount calls relative to WebPages calls.
	CountFactor float64
	// MaxConcurrent bounds overlapped calls (the ReqPump limit).
	MaxConcurrent int
}

// eqSelectivity and cmpSelectivity are the classic textbook defaults for
// equality and range predicates.
const (
	eqSelectivity  float64 = 0.1
	cmpSelectivity float64 = 0.4
)

// DefaultCostModel mirrors the bench-latency environment.
func DefaultCostModel() CostModel {
	return CostModel{
		CallLatency:   25 * time.Millisecond,
		CountFactor:   0.8,
		MaxConcurrent: 32,
	}
}

// Estimate summarizes a plan's predicted behavior.
type Estimate struct {
	// Cardinality is the expected number of output tuples.
	Cardinality float64
	// ExternalCalls is the expected number of search-engine calls.
	ExternalCalls float64
	// CallSeconds is the summed expected latency of those calls.
	CallSeconds float64
	// SyncLatency is the predicted wall time executing sequentially
	// (every call on the critical path).
	SyncLatency time.Duration
	// AsyncLatency is the predicted wall time with asynchronous iteration:
	// calls overlap up to MaxConcurrent, so latency is paid in waves.
	AsyncLatency time.Duration
	// Improvement = SyncLatency / AsyncLatency.
	Improvement float64
}

// nodeEstimate is the per-operator accumulator.
type nodeEstimate struct {
	card  float64 // output cardinality
	calls float64 // external calls issued in this subtree (per one Open)
	secs  float64 // summed call latency in this subtree
}

// EstimatePlan walks the plan bottom-up and derives an Estimate. It
// understands both synchronous plans (EVScan) and rewritten plans
// (AEVScan/ReqSync); call counts are identical by design — asynchrony
// changes *when* calls run, not how many (modulo the Figure 7 hazard,
// which the estimator surfaces through per-binding call multiplication).
func EstimatePlan(op exec.Operator, m CostModel) Estimate {
	if m.MaxConcurrent <= 0 {
		m.MaxConcurrent = 1
	}
	n := estimateNode(op, m)
	est := Estimate{
		Cardinality:   n.card,
		ExternalCalls: n.calls,
		CallSeconds:   n.secs,
	}
	est.SyncLatency = time.Duration(n.secs * float64(time.Second))
	// Asynchronous execution pays latency in waves of MaxConcurrent.
	if n.calls > 0 {
		waves := float64(int((n.calls + float64(m.MaxConcurrent) - 1) / float64(m.MaxConcurrent)))
		meanCall := n.secs / n.calls
		est.AsyncLatency = time.Duration(waves * meanCall * float64(time.Second))
		if est.AsyncLatency > 0 {
			est.Improvement = float64(est.SyncLatency) / float64(est.AsyncLatency)
		}
	}
	return est
}

func estimateNode(op exec.Operator, m CostModel) nodeEstimate {
	switch o := op.(type) {
	case *exec.TableScan:
		card := float64(storedRowCount(o))
		if o.Pred != nil {
			card *= cmpSelectivity // the Select that runs inside the scan
		}
		return nodeEstimate{card: card}
	case *exec.ValuesScan:
		return nodeEstimate{card: float64(len(o.Rows))}
	case *exec.EVScan:
		return estimateEVScan(o.Source, o.Inputs, m)
	case *async.AEVScan:
		return estimateEVScan(o.Source, o.Inputs, m)
	case nil:
		return nodeEstimate{}
	case *exec.Filter:
		in := estimateNode(o.Child, m)
		in.card *= cmpSelectivity
		return in
	case *exec.Project:
		return estimateNode(o.Child, m)
	case *exec.Sort:
		return estimateNode(o.Child, m)
	case *exec.Limit:
		in := estimateNode(o.Child, m)
		if float64(o.N) < in.card {
			in.card = float64(o.N)
		}
		return in
	case *exec.Distinct:
		in := estimateNode(o.Child, m)
		in.card *= 0.8
		return in
	case *exec.Aggregate:
		in := estimateNode(o.Child, m)
		if len(o.GroupBy) == 0 {
			in.card = 1
		} else {
			in.card /= 3
			if in.card < 1 {
				in.card = 1
			}
		}
		return in
	case *async.ReqSync:
		return estimateNode(o.Child, m)
	case *exec.HashJoin:
		l := estimateNode(o.Left, m)
		r := estimateNode(o.Right, m)
		// Same cardinality model as a predicated nested loop: the operator
		// swap changes cost, not output.
		return nodeEstimate{
			card:  l.card * r.card * eqSelectivity,
			calls: l.calls + r.calls,
			secs:  l.secs + r.secs,
		}
	case *exec.HashSemiJoin:
		l := estimateNode(o.Left, m)
		r := estimateNode(o.Right, m)
		// Each probe tuple survives at most once.
		card := l.card * eqSelectivity
		if card > l.card {
			card = l.card
		}
		return nodeEstimate{
			card:  card,
			calls: l.calls + r.calls,
			secs:  l.secs + r.secs,
		}
	case *exec.NestedLoopJoin:
		l := estimateNode(o.Left, m)
		r := estimateNode(o.Right, m)
		out := nodeEstimate{
			card:  l.card * r.card,
			calls: l.calls + r.calls,
			secs:  l.secs + r.secs,
		}
		if o.Pred != nil {
			out.card *= eqSelectivity
		}
		return out
	case *exec.DependentJoin:
		l := estimateNode(o.Left, m)
		r := estimateNode(o.Right, m)
		// The right subtree re-opens once per left tuple: its calls (and
		// latency) multiply by the outer cardinality — this is exactly how
		// the Figure 7 plan's |R|-fold redundant calls become visible.
		return nodeEstimate{
			card:  l.card * r.card,
			calls: l.calls + l.card*r.calls,
			secs:  l.secs + l.card*r.secs,
		}
	default:
		// Unknown operator: pass through the first child, if any.
		kids := op.Children()
		if len(kids) == 1 {
			return estimateNode(kids[0], m)
		}
		return nodeEstimate{card: 1}
	}
}

// estimateEVScan predicts one external scan's fanout and cost per Open.
func estimateEVScan(src exec.ExternalSource, inputs []expr.Expr, m CostModel) nodeEstimate {
	secs := m.CallLatency.Seconds()
	fanout := 1.0
	if s, ok := src.(*vtab.Source); ok {
		switch s.Def.Kind {
		case vtab.KindWebCount:
			secs *= m.CountFactor
		case vtab.KindWebPages:
			fanout = float64(rankLimitOf(inputs))
		}
	}
	return nodeEstimate{card: fanout, calls: 1, secs: secs}
}

// rankLimitOf extracts the trailing rank-limit literal from a WebPages
// scan's inputs, defaulting to the paper's guard of 20.
func rankLimitOf(inputs []expr.Expr) int {
	if len(inputs) == 0 {
		return vtab.DefaultRankLimit
	}
	if lit, ok := inputs[len(inputs)-1].(*expr.Literal); ok {
		if n, err := lit.Val.AsInt(); err == nil && n > 0 {
			return int(n)
		}
	}
	return vtab.DefaultRankLimit
}

// storedRowCount counts a stored table's live rows (WSQ's stored relations
// are small reference tables, so an exact count is cheaper than keeping
// statistics).
func storedRowCount(s *exec.TableScan) int {
	rows, err := s.Table.ScanAll()
	if err != nil {
		return 0
	}
	return len(rows)
}
