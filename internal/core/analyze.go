package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/types"
)

// This file implements EXPLAIN ANALYZE: execute the query traced and
// return the per-operator span tree instead of the rows. The prefix is
// intercepted before SQL parsing (like the shell's dot-commands, but
// inside the DB so it also works for remote wsqd clients), and the
// rendered profile is returned as an ordinary single-column result so
// every existing transport can carry it. Programs that want the rows and
// the tree ask for QueryOptions{Trace: true}.

// stripExplainAnalyze matches a leading `EXPLAIN ANALYZE ` prefix
// (case-insensitive, any whitespace) and returns the remaining query.
func stripExplainAnalyze(sql string) (string, bool) {
	rest, ok := cutKeyword(strings.TrimSpace(sql), "EXPLAIN")
	if !ok {
		return "", false
	}
	rest, ok = cutKeyword(rest, "ANALYZE")
	if !ok {
		return "", false
	}
	return rest, true
}

// cutKeyword removes a leading keyword followed by whitespace,
// case-insensitively.
func cutKeyword(s, kw string) (string, bool) {
	if len(s) <= len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return "", false
	}
	rest := s[len(kw):]
	trimmed := strings.TrimLeft(rest, " \t\r\n")
	if trimmed == rest { // keyword not followed by whitespace (e.g. EXPLAINX)
		return "", false
	}
	return trimmed, true
}

// explainAnalyze runs the query traced and renders the span tree as a
// one-column result, one line per row.
func (db *DB) explainAnalyze(ctx context.Context, sql string, opts QueryOptions) (*Result, error) {
	opts.Trace = true
	res, st, err := db.query(ctx, sql, opts)
	if err != nil {
		return nil, err
	}
	if st != nil {
		return nil, fmt.Errorf("EXPLAIN ANALYZE expects a query, got %T", st)
	}
	lines := strings.Split(strings.TrimRight(res.Trace.Render(), "\n"), "\n")
	lines = append(lines,
		fmt.Sprintf("total: %v  rows=%d  external_calls=%d  degraded_calls=%d",
			res.Trace.Dur.Round(time.Microsecond), len(res.Rows),
			res.Stats.ExternalCalls, res.Stats.DegradedCalls))
	rows := make([]types.Tuple, len(lines))
	for i, l := range lines {
		rows[i] = types.Tuple{types.Str(l)}
	}
	return &Result{Columns: []string{"EXPLAIN ANALYZE"}, Rows: rows, Stats: res.Stats, Trace: res.Trace}, nil
}
