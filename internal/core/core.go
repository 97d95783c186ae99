// Package core is the public face of the WSQ/DSQ reproduction: a small
// relational database (the Redbase substrate) extended with the paper's
// two WSQ virtual tables and asynchronous iteration.
//
// A DB owns a catalog of stored tables, a registry of search engines, the
// global request pump, and an optional result cache. SQL statements are
// parsed, planned (FROM-order joins, dependent joins over virtual table
// scans), optionally rewritten for asynchronous iteration, and executed by
// the iterator engine.
//
// Typical use:
//
//	db, _ := core.Open(core.Config{Dir: dir, Async: true})
//	corpus := websim.Default()
//	db.RegisterEngine(search.NewDelayed(websim.NewAltaVista(corpus), search.PaperLatency(), 1), "AV")
//	db.Exec(`CREATE TABLE States (Name VARCHAR, Population INT, Capital VARCHAR)`)
//	res, _ := db.Exec(`SELECT Name, Count FROM States, WebCount
//	                   WHERE Name = T1 ORDER BY Count DESC`)
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/async"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/lockrank"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sqlparse"
	"repro/internal/types"
	"repro/internal/vtab"
)

// Config controls a DB instance.
type Config struct {
	// Dir is the database directory (catalog + heap files).
	Dir string
	// Async enables asynchronous iteration for SELECT execution. It can be
	// toggled per-DB at runtime with SetAsync (the experiments compare both
	// modes over the same data).
	Async bool
	// MaxConcurrentCalls bounds total in-flight external calls
	// (0 = async.DefaultMaxTotal).
	MaxConcurrentCalls int
	// MaxCallsPerDest bounds in-flight calls per search engine
	// (0 = async.DefaultMaxPerDest).
	MaxCallsPerDest int
	// CacheSize is the LRU capacity for external call results; 0 disables
	// caching.
	CacheSize int
	// Retry is the request pump's fault-tolerance policy (retries with
	// backoff, per-attempt deadlines, hedging). The zero value executes
	// every call exactly once.
	Retry async.RetryPolicy
	// Degrade is the default failed-call degradation policy for queries
	// that do not choose one (fail / drop / partial).
	Degrade exec.DegradePolicy
}

// DB is an open WSQ database. It is safe for concurrent use: any number of
// SELECTs may execute at once (sharing the catalog, buffer pools, result
// cache, and the one global request pump), while DDL and INSERT statements
// take the database exclusively.
type DB struct {
	cfg     Config
	cat     *catalog.Catalog
	engines *search.Registry
	vtabs   *vtab.Registry
	cache   *cache.Cache
	pump    *async.Pump
	planner *plan.Planner
	reg     *obs.Registry

	// async toggles asynchronous iteration; atomic so SetAsync can race
	// with concurrent query planning without a lock.
	async atomic.Bool
	// mu serializes writers (CREATE/DROP/INSERT mutate catalog state and
	// heap pages) against concurrently running readers (SELECT/UNION).
	mu lockrank.DBMu

	// idle holds, per exact statement text, the finished trees no query is
	// running, all planned under version idleAt (DESIGN.md §5, "Plan
	// reuse"). planMu guards both; it is a leaf taken under mu's read lock.
	planMu lockrank.DBPlanMu
	idle   map[string][]*tree
	idleAt uint64
	epoch  atomic.Uint64 // SetAsync's share of version()
}

// tree is a finished operator tree — planned, rewritten for asynchronous
// iteration, not instrumented — with its column names. From take to put
// it belongs to one query.
type tree struct {
	op   exec.Operator
	cols []string
}

// The idle trees one text keeps, and the texts idle keeps before a new one
// drops it whole. Constants, not options: they have to cover the queries
// running one text at once and an application's statement shapes, and a
// miss of either costs one planning.
const (
	maxIdleTrees = 8
	maxTreeTexts = 256
)

// Result is a fully materialized query result. Rows are its own; Columns
// is shared with the other results of the same statement text and must not
// be written.
type Result struct {
	Columns []string
	Rows    []types.Tuple
	Stats   exec.Stats
	// Trace is the query's per-operator span tree when it was traced
	// (QueryOptions.Trace, a sampled context); nil otherwise.
	Trace *obs.Span
}

// Open opens (creating if necessary) a database.
func Open(cfg Config) (*DB, error) {
	cat, err := catalog.Open(cfg.Dir, 0) // 0: storage.DefaultPoolSize frames per heap file
	if err != nil {
		return nil, err
	}
	engines := search.NewRegistry()
	vt := vtab.NewRegistry(engines)
	// A nil *cache.Cache must stay a nil interface: wrapping it would make
	// the pump believe caching (and thus duplicate-call coalescing) is on.
	var c *cache.Cache
	var rc exec.ResultCache
	if cfg.CacheSize > 0 {
		c = cache.New(cfg.CacheSize)
		rc = c
	}
	reg := obs.NewRegistry()
	db := &DB{
		cfg:     cfg,
		cat:     cat,
		engines: engines,
		vtabs:   vt,
		cache:   c,
		pump:    async.NewPump(cfg.MaxConcurrentCalls, cfg.MaxCallsPerDest, rc),
		reg:     reg,
	}
	db.pump.SetRetryPolicy(cfg.Retry)
	db.pump.SetSources(func(name string) (exec.ExternalSource, error) { return vt.Source(name) })
	db.pump.Observe(reg)
	c.Observe(reg) // nil-safe: a disabled cache registers nothing
	db.async.Store(cfg.Async)
	db.planner = plan.New(cat, vt)
	return db, nil
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.pump.Close()
	return db.cat.Close()
}

// RegisterEngine makes a search engine available to the virtual tables
// under its name plus the given aliases (e.g. "AV" for "altavista").
// Engines that are observable (the Delayed/Flaky simulation wrappers)
// are attached to the DB's metrics registry.
func (db *DB) RegisterEngine(e search.Engine, aliases ...string) {
	db.engines.Register(e, aliases...)
	if o, ok := e.(obs.Observable); ok {
		o.Observe(db.reg)
	}
}

// Metrics exposes the DB's metrics registry (pump, engines, and anything
// else the embedding process registers on it).
func (db *DB) Metrics() *obs.Registry { return db.reg }

// Engines exposes the engine registry.
func (db *DB) Engines() *search.Registry { return db.engines }

// Catalog exposes the stored-table catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pump exposes the global request pump (for stats in experiments).
func (db *DB) Pump() *async.Pump { return db.pump }

// Cache exposes the result cache (nil when disabled).
func (db *DB) Cache() *cache.Cache { return db.cache }

// SetAsync toggles asynchronous iteration for subsequent SELECTs.
func (db *DB) SetAsync(on bool) {
	db.async.Store(on)
	db.epoch.Add(1) // after the store, as every bump of version()
}

// Async reports whether asynchronous iteration is enabled.
func (db *DB) Async() bool { return db.async.Load() }

// QueryOptions carries per-statement execution choices.
type QueryOptions struct {
	// Degrade overrides the DB's default failed-call degradation policy
	// when non-nil.
	Degrade *exec.DegradePolicy
	// Trace instruments this execution, so Result.Trace carries the
	// query's per-operator span tree (timings, cardinalities,
	// patch/expansion counts). Unlike a sampled context, it attaches no
	// pump.call spans (queue wait, attempts, retries) under the scans:
	// those are recorded only for a context that carries a trace. The
	// plan is the one an untraced run reuses. Costs two time.Now calls per
	// operator invocation.
	Trace bool
	// BatchSize overrides the executor's batch granularity for this
	// statement (0 = exec.DefaultBatchSize). It is a reference granularity,
	// not a tuning knob: the golden e2e suite and the plan-equivalence
	// fuzzer sweep it to pin batch-boundary semantics, and the benchmark's
	// reference pass runs size 1.
	BatchSize int
}

// ExecContext parses and executes one SQL statement under ctx: deadline
// expiry or cancellation aborts execution, dropping any external calls the
// statement still has queued in the request pump.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return db.ExecContextOpts(ctx, sql, QueryOptions{})
}

// ExecContextOpts is ExecContext with per-statement options. A nil ctx
// means no deadline.
func (db *DB) ExecContextOpts(ctx context.Context, sql string, opts QueryOptions) (*Result, error) {
	return db.statement(ctx, sql, opts, true)
}

// QueryContext executes a SELECT (or UNION of SELECTs) under ctx.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return db.QueryContextOpts(ctx, sql, QueryOptions{})
}

// QueryContextOpts is QueryContext with per-statement options (e.g. the
// degradation policy wsqd threads through from the client request). A
// nil ctx means no deadline. Any other statement is refused with an
// error that wraps ErrReadOnly.
func (db *DB) QueryContextOpts(ctx context.Context, sql string, opts QueryOptions) (*Result, error) {
	return db.statement(ctx, sql, opts, false)
}

// ErrReadOnly is wrapped by QueryContext's refusal of a statement that is
// not a query: a write on a read-only path.
var ErrReadOnly = errors.New("expected a query")

// statement executes one statement: EXPLAIN ANALYZE of a query, a query,
// or, when writes is set, a write.
func (db *DB) statement(ctx context.Context, sql string, opts QueryOptions, writes bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rest, ok := stripExplainAnalyze(sql); ok {
		return db.explainAnalyze(ctx, rest, opts)
	}
	res, st, err := db.query(ctx, sql, opts)
	if st == nil {
		return res, err
	}
	if !writes {
		return nil, fmt.Errorf("%w, got %T", ErrReadOnly, st)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	switch s := st.(type) {
	case *sqlparse.CreateTable:
		return db.execCreate(s)
	case *sqlparse.DropTable:
		if err := db.cat.Drop(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparse.Insert:
		return db.execInsert(s)
	default:
		return nil, fmt.Errorf("unsupported statement %T", st)
	}
}

// query answers sql from an idle tree or parses it and runs it, if it is a
// SELECT or a UNION of them. Any other statement is returned unrun, for
// the caller to run or refuse.
func (db *DB) query(ctx context.Context, sql string, opts QueryOptions) (*Result, sqlparse.Statement, error) {
	if res, ok, err := db.rerun(ctx, sql, opts); ok {
		return res, nil, err
	}
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	switch st.(type) {
	case *sqlparse.Select, *sqlparse.Union:
		res, err := db.runQueryable(ctx, sql, st, opts)
		return res, nil, err
	}
	return nil, st, nil
}

func (db *DB) execCreate(s *sqlparse.CreateTable) (*Result, error) {
	if db.vtabs.IsVirtual(s.Name) {
		return nil, fmt.Errorf("%s is a reserved virtual table name", s.Name)
	}
	cols := make([]catalog.ColumnDef, len(s.Columns))
	for i, c := range s.Columns {
		ty, err := schema.ParseType(c.Type)
		if err != nil {
			return nil, err
		}
		cols[i] = catalog.ColumnDef{Name: c.Name, Type: ty}
	}
	if _, err := db.cat.Create(s.Name, cols); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) execInsert(s *sqlparse.Insert) (*Result, error) {
	t, ok := db.cat.Get(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %s", s.Table)
	}
	for _, row := range s.Rows {
		if _, err := t.Insert(types.Tuple(row)); err != nil {
			return nil, err
		}
	}
	return &Result{Stats: exec.Stats{TuplesOut: int64(len(s.Rows))}}, nil
}

// Plan lowers a SELECT to an operator tree, applying the asynchronous
// iteration rewrite when enabled.
func (db *DB) Plan(sel *sqlparse.Select) (exec.Operator, error) {
	return db.planStatement(sel)
}

// planStatement lowers a SELECT or UNION, applying the asynchronous
// iteration rewrite when enabled.
func (db *DB) planStatement(st sqlparse.Statement) (exec.Operator, error) {
	var op exec.Operator
	var err error
	switch s := st.(type) {
	case *sqlparse.Select:
		op, err = db.planner.PlanSelect(s)
	case *sqlparse.Union:
		op, err = db.planner.PlanUnion(s)
	default:
		return nil, fmt.Errorf("not a query: %T", st)
	}
	if err != nil {
		return nil, err
	}
	if db.async.Load() {
		op = async.Rewrite(op, db.pump)
	}
	return op, nil
}

// version names the world a plan closes over: the stored tables and their
// rows (the planner picks a join by them), the engines its virtual tables
// resolved to, the asynchronous rewrite. Each addend only grows, after the
// change it reports, so a tree planned after reading v is stale exactly
// when version() has left v.
func (db *DB) version() uint64 {
	return db.cat.Version() + db.engines.Version() + db.epoch.Load()
}

// idleFor reports whether idle holds the trees of version v, after dropping
// those of an older one. Callers hold planMu.
func (db *DB) idleFor(v uint64) bool {
	if v > db.idleAt {
		db.idle, db.idleAt = nil, v
	}
	return v == db.idleAt
}

// takeTree removes from idle a tree planned for sql under version v.
func (db *DB) takeTree(sql string, v uint64) *tree {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if !db.idleFor(v) {
		return nil
	}
	trees := db.idle[sql]
	if len(trees) == 0 {
		return nil
	}
	t := trees[len(trees)-1]
	trees[len(trees)-1] = nil // a tree an error drops is not kept alive from here
	db.idle[sql] = trees[:len(trees)-1]
	return t
}

// putTree returns to idle a tree planned for sql under version v whose
// last exec.Run returned no error, so that every operator of it is closed.
func (db *DB) putTree(sql string, v uint64, t *tree) {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if !db.idleFor(v) {
		return
	}
	trees, known := db.idle[sql]
	if len(trees) >= maxIdleTrees {
		return
	}
	if db.idle == nil || !known && len(db.idle) >= maxTreeTexts {
		db.idle = make(map[string][]*tree)
	}
	db.idle[sql] = append(trees, t)
}

// rerun answers sql from a tree an earlier execution of the same text left
// idle, before anything parses it; ok is false when there is none.
func (db *DB) rerun(goCtx context.Context, sql string, opts QueryOptions) (res *Result, ok bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v := db.version()
	t := db.takeTree(sql, v)
	if t == nil {
		return nil, false, nil
	}
	if res, err = db.run(goCtx, t, opts); err == nil {
		db.putTree(sql, v, t)
	}
	return res, true, err
}

// runQueryable plans st, the parse of sql, runs it and, unless the query
// failed, leaves the tree idle for the next execution of sql.
func (db *DB) runQueryable(goCtx context.Context, sql string, st sqlparse.Statement, opts QueryOptions) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v := db.version() // before planning: see version
	op, err := db.planStatement(st)
	if err != nil {
		return nil, err
	}
	t := &tree{op: op, cols: make([]string, op.Schema().Len())}
	for i, c := range op.Schema().Cols {
		t.cols[i] = c.Name
	}
	res, err := db.run(goCtx, t, opts)
	if err == nil {
		db.putTree(sql, v, t)
	}
	return res, err
}

// run executes t under a fresh exec.Context. A traced execution
// (QueryOptions.Trace, a sampled context) runs t instrumented and takes the
// decorators out again before it returns: tracing is per execution, not per
// tree (DESIGN.md §5, rule 4).
func (db *DB) run(goCtx context.Context, t *tree, opts QueryOptions) (*Result, error) {
	ctx := exec.NewContextWith(goCtx)
	ctx.Degrade = db.cfg.Degrade
	if opts.Degrade != nil {
		ctx.Degrade = *opts.Degrade
	}
	ctx.BatchSize = opts.BatchSize
	ctx.RetryCall = db.pump.CallWithRetry
	op := t.op
	var span *obs.Span
	if opts.Trace || obs.SampledTrace(goCtx) != nil {
		op, span = exec.Instrument(op)
	}
	rows, err := exec.Run(ctx, op)
	if span != nil {
		t.op = exec.Uninstrument(op)
	}
	// The query is this execution's calls' last owner (see Context.PumpCalls).
	db.pump.Discard(ctx.PumpCalls...)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: t.cols, Rows: rows, Stats: ctx.Stats, Trace: span}, nil
}

// planSelect parses a SELECT and lowers it without the asynchronous
// iteration rewrite: the input plan Explain and Estimate read.
func (db *DB) planSelect(sql string) (exec.Operator, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.planner.PlanSelect(sel)
}

// Explain returns the textual plan for a SELECT, in both modes when async
// is enabled.
func (db *DB) Explain(sql string) (string, error) {
	op, err := db.planSelect(sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("-- input plan --\n")
	b.WriteString(exec.Explain(op))
	if db.async.Load() {
		op = async.Rewrite(op, db.pump)
		b.WriteString("-- asynchronous iteration plan --\n")
		b.WriteString(exec.Explain(op))
	}
	return b.String(), nil
}

// Estimate runs the cost estimator over a SELECT's plan.
func (db *DB) Estimate(sql string, model plan.CostModel) (plan.Estimate, error) {
	op, err := db.planSelect(sql)
	if err != nil {
		return plan.Estimate{}, err
	}
	return plan.EstimatePlan(op, model), nil
}

// Format renders a result as an aligned text table.
func (r *Result) Format() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("ok (%d rows affected)\n", r.Stats.TuplesOut)
	}
	return FormatTable(r.Columns, r.Rows, func(v types.Value) string {
		if v.Kind == types.KindFloat {
			return fmt.Sprintf("%.4g", v.F)
		}
		return v.String()
	})
}

// FormatTable renders rows as an aligned text table: the column names,
// a rule, each row's cells as cell renders them, padded to their
// column's widest, and "(n rows)". A result and a remote response, whose
// cells differ, render through it alike.
func FormatTable[Row ~[]C, C any](columns []string, rows []Row, cell func(C) string) string {
	widths := make([]int, len(columns))
	for i, c := range columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rows))
	for ri, row := range rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := cell(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for ci, s := range row {
			if ci > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[ci], s)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(rows))
	return b.String()
}
