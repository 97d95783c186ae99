package fuzzqe

import (
	"fmt"
	"strings"
)

// Join kinds. Dimension joins are keyed equi-joins against the fact
// table; web joins are dependent joins against a WSQ virtual table.
const (
	JoinState    = "state"
	JoinTerm     = "term"
	JoinMovie    = "movie"
	JoinWebCount = "webcount"
	JoinWebPages = "webpages"
)

// Join is one FROM-clause extension in a QuerySpec. For web joins,
// BindCol names the earlier column bound to T1 by equality, Engine is the
// virtual-table suffix ("AV" or "G"), T2Const optionally binds T2 to a
// constant, and RankLimit bounds WebPages.Rank.
type Join struct {
	Kind      string `json:"kind"`
	Alias     string `json:"alias"`
	Engine    string `json:"engine,omitempty"`
	BindCol   string `json:"bind_col,omitempty"`
	T2Const   string `json:"t2_const,omitempty"`
	RankLimit int    `json:"rank_limit,omitempty"`
}

// IsWeb reports whether the join targets a virtual table.
func (j *Join) IsWeb() bool { return j.Kind == JoinWebCount || j.Kind == JoinWebPages }

// Filter is one restricted WHERE conjunct: a qualified column compared to
// a constant or to another column, or an IS [NOT] NULL test. Op is one of
// = <> < <= > >= isnull isnotnull.
type Filter struct {
	Col    string  `json:"col"`
	Op     string  `json:"op"`
	RCol   string  `json:"rcol,omitempty"`
	IntVal *int64  `json:"int_val,omitempty"`
	StrVal *string `json:"str_val,omitempty"`
}

// OrderKey is one ORDER BY key over a projected column.
type OrderKey struct {
	Col  string `json:"col"`
	Desc bool   `json:"desc,omitempty"`
}

// QuerySpec is a generated query in structured form. It is the unit the
// shrinker minimizes and the repro corpus serializes: the SQL text, the
// ground truth, and the plan-expectation model are all derived from it.
type QuerySpec struct {
	// IDLo/IDHi bound Fact.Id; with web joins present they keep the
	// number of external calls per query small.
	IDLo  int64  `json:"id_lo"`
	IDHi  int64  `json:"id_hi"`
	Joins []Join `json:"joins,omitempty"`
	// Filters are evaluated conjunctively with the join predicates.
	Filters  []Filter   `json:"filters,omitempty"`
	Distinct bool       `json:"distinct,omitempty"`
	Proj     []string   `json:"proj"`
	OrderBy  []OrderKey `json:"order_by,omitempty"`
	// Note records how the spec entered the corpus (shrinker provenance).
	Note string `json:"note,omitempty"`
}

// vtabName returns the SQL virtual-table name for a web join.
func (j *Join) vtabName() string {
	base := "WebCount"
	if j.Kind == JoinWebPages {
		base = "WebPages"
	}
	return base + "_" + j.Engine
}

// SQL renders the spec as the query text the differential harness parses
// and plans. The FROM order is the join order (Redbase fixes join order
// by FROM position), and web input bindings are written input-column
// first (`w.T1 = expr`) as the planner's binding analysis expects.
func (s *QuerySpec) SQL() string {
	var from []string
	from = append(from, "Fact f")
	conj := []string{
		fmt.Sprintf("f.Id >= %d", s.IDLo),
		fmt.Sprintf("f.Id <= %d", s.IDHi),
	}
	for i := range s.Joins {
		j := &s.Joins[i]
		switch j.Kind {
		case JoinState:
			from = append(from, "DimState "+j.Alias)
			conj = append(conj, fmt.Sprintf("f.Sk = %s.Sk", j.Alias))
		case JoinTerm:
			from = append(from, "DimTerm "+j.Alias)
			conj = append(conj, fmt.Sprintf("f.Tk = %s.Tk", j.Alias))
		case JoinMovie:
			from = append(from, "DimMovie "+j.Alias)
			conj = append(conj, fmt.Sprintf("f.Mk = %s.Mk", j.Alias))
		case JoinWebCount, JoinWebPages:
			from = append(from, j.vtabName()+" "+j.Alias)
			conj = append(conj, fmt.Sprintf("%s.T1 = %s", j.Alias, j.BindCol))
			if j.T2Const != "" {
				conj = append(conj, fmt.Sprintf("%s.T2 = '%s'", j.Alias, j.T2Const))
			}
			if j.Kind == JoinWebPages {
				conj = append(conj, fmt.Sprintf("%s.Rank <= %d", j.Alias, j.RankLimit))
			}
		}
	}
	for i := range s.Filters {
		conj = append(conj, s.Filters[i].SQL())
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(s.Proj, ", "))
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(from, ", "))
	b.WriteString(" WHERE ")
	b.WriteString(strings.Join(conj, " AND "))
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = k.Col
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY ")
		b.WriteString(strings.Join(keys, ", "))
	}
	return b.String()
}

// SQL renders one filter conjunct.
func (f *Filter) SQL() string {
	switch f.Op {
	case "isnull":
		return fmt.Sprintf("%s IS NULL", f.Col)
	case "isnotnull":
		return fmt.Sprintf("%s IS NOT NULL", f.Col)
	}
	rhs := f.RCol
	if rhs == "" {
		if f.IntVal != nil {
			rhs = fmt.Sprintf("%d", *f.IntVal)
		} else if f.StrVal != nil {
			rhs = "'" + strings.ReplaceAll(*f.StrVal, "'", "''") + "'"
		} else {
			rhs = "NULL"
		}
	}
	return fmt.Sprintf("%s %s %s", f.Col, f.Op, rhs)
}

// aliasOf returns the qualifier of a qualified column ("s.Cap" → "s").
func aliasOf(col string) string {
	if i := strings.IndexByte(col, '.'); i >= 0 {
		return col[:i]
	}
	return col
}

// singleTable reports whether the filter reads one table's columns only.
// Over a stored table the planner runs such a conjunct inside the scan.
func (f *Filter) singleTable() bool {
	return f.RCol == "" || aliasOf(f.RCol) == aliasOf(f.Col)
}

// refsAlias reports whether the filter references the given table alias.
func (f *Filter) refsAlias(alias string) bool {
	return aliasOf(f.Col) == alias || (f.RCol != "" && aliasOf(f.RCol) == alias)
}
