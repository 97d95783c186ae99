// Package schema defines column and schema metadata with stable attribute
// identity.
//
// Every column instance in a query plan carries a globally unique AttrID.
// Expressions reference columns by AttrID, and each operator resolves
// AttrID → positional index against its input schema when it is opened.
// This identity-based scheme is what makes the asynchronous-iteration plan
// rewrites (ReqSync insertion, percolation, consolidation — Section 4.5 of
// the WSQ/DSQ paper) safe: operators can be reordered freely without any
// positional index fix-ups.
package schema

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// AttrID uniquely identifies one column instance within a process.
type AttrID uint32

// Type is a declared column type.
type Type uint8

// The supported column types.
const (
	TInt Type = iota
	TFloat
	TString
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ParseType parses a SQL type name into a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return TInt, nil
	case "FLOAT", "REAL", "DOUBLE":
		return TFloat, nil
	case "VARCHAR", "CHAR", "STRING", "TEXT":
		return TString, nil
	default:
		return 0, fmt.Errorf("unknown column type %q", s)
	}
}

var nextAttr atomic.Uint32

// NewAttrID allocates a fresh, process-unique attribute identifier.
func NewAttrID() AttrID { return AttrID(nextAttr.Add(1)) }

// Column describes one column instance in a plan: its identity, the
// table/alias it came from, its name, and its type.
type Column struct {
	ID    AttrID
	Table string // table alias as written in the query ("" for computed)
	Name  string
	Type  Type
}

// QualifiedName returns "table.name" (or just "name" when unqualified).
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// New builds a schema from columns.
func New(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// IndexOf returns the position of the column with the given AttrID, or -1.
func (s *Schema) IndexOf(id AttrID) int {
	for i, c := range s.Cols {
		if c.ID == id {
			return i
		}
	}
	return -1
}

// ByID returns the column with the given AttrID.
func (s *Schema) ByID(id AttrID) (Column, bool) {
	i := s.IndexOf(id)
	if i < 0 {
		return Column{}, false
	}
	return s.Cols[i], true
}

// Lookup finds the columns matching an optionally qualified name,
// case-insensitively: how many match, and the first of them. It is
// Resolve without the error, for callers that probe several schemas and
// expect most to have no such column.
func (s *Schema) Lookup(table, name string) (col Column, matches int) {
	for _, c := range s.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if matches++; matches == 1 {
			col = c
		}
	}
	return col, matches
}

// Resolve finds the column matching an optionally qualified name.
// Matching is case-insensitive. It returns an error if the name is
// ambiguous or not found.
func (s *Schema) Resolve(table, name string) (Column, error) {
	col, matches := s.Lookup(table, name)
	switch matches {
	case 0:
		if table != "" {
			return Column{}, fmt.Errorf("unknown column %s.%s", table, name)
		}
		return Column{}, fmt.Errorf("unknown column %s", name)
	case 1:
		return col, nil
	default:
		return Column{}, fmt.Errorf("ambiguous column %s (matches %d tables)", name, matches)
	}
}

// Concat returns a new schema of s's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, o.Cols...)
	return &Schema{Cols: cols}
}

// AttrIDs returns the set of attribute IDs present in the schema.
func (s *Schema) AttrIDs() map[AttrID]bool {
	m := make(map[AttrID]bool, len(s.Cols))
	for _, c := range s.Cols {
		m[c.ID] = true
	}
	return m
}

// Project returns a new schema holding only the columns with the given IDs,
// in the given order.
func (s *Schema) Project(ids []AttrID) (*Schema, error) {
	cols := make([]Column, 0, len(ids))
	for _, id := range ids {
		c, ok := s.ByID(id)
		if !ok {
			return nil, fmt.Errorf("schema has no attribute %d", id)
		}
		cols = append(cols, c)
	}
	return &Schema{Cols: cols}, nil
}

// String renders the schema for EXPLAIN output.
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.QualifiedName()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
