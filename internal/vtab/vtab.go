// Package vtab defines the WSQ virtual tables of Section 3 of the paper:
//
//	WebPages(SearchExp, T1, ..., Tn, URL, Rank, Date)
//	WebCount(SearchExp, T1, ..., Tn, Count)
//
// plus WebFetch(URL, Content, Status), the virtual table behind the web
// crawler scenario of Section 4.2. Each virtual table is instantiated per
// search engine: WebCount_AV, WebPages_Google, and so on; the unsuffixed
// names resolve to the registry's default engine.
//
// A virtual table "looks like a table to the query processor but returns
// dynamically-generated tuples". Its input columns (SearchExp, T1..Tn)
// must be bound during query processing — by defaults, by equality with a
// constant, or through an equi-join — which the planner turns into a
// dependent join feeding an EVScan (or AEVScan) built from these
// definitions.
package vtab

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/types"
)

// MaxTerms is the largest supported term index n in T1..Tn. The paper
// notes DB2 table functions would likewise need a predetermined maximum.
const MaxTerms = 8

// DefaultRankLimit is the default selection on WebPages.Rank, "to prevent
// 'runaway' queries" (Section 3: Rank < 20).
const DefaultRankLimit = 20

// Kind enumerates the virtual table families.
type Kind uint8

// The virtual table kinds.
const (
	KindWebCount Kind = iota
	KindWebPages
	KindWebFetch
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case KindWebCount:
		return "WebCount"
	case KindWebPages:
		return "WebPages"
	case KindWebFetch:
		return "WebFetch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ColumnDef declares one virtual table column.
type ColumnDef struct {
	Name  string
	Type  schema.Type
	Input bool // true for columns that parameterize the call
}

// Def is one resolved virtual table instance (family × engine).
type Def struct {
	// TableName is the name as referenced in SQL, e.g. "WebCount_AV".
	TableName string
	Kind      Kind
	Engine    search.Engine
	// Near reports whether the engine supports the NEAR operator; it
	// selects the default SearchExp ("%1 near %2 ..." vs "%1 %2 ...").
	Near bool
}

// Columns returns the table's column definitions in schema order: inputs
// (SearchExp, T1..Tn — or URL for WebFetch) followed by outputs.
func (d *Def) Columns() []ColumnDef {
	switch d.Kind {
	case KindWebFetch:
		return []ColumnDef{
			{Name: "URL", Type: schema.TString, Input: true},
			{Name: "Content", Type: schema.TString},
			{Name: "Status", Type: schema.TInt},
		}
	default:
		cols := make([]ColumnDef, 0, 1+MaxTerms+3)
		cols = append(cols, ColumnDef{Name: "SearchExp", Type: schema.TString, Input: true})
		for i := 1; i <= MaxTerms; i++ {
			cols = append(cols, ColumnDef{Name: fmt.Sprintf("T%d", i), Type: schema.TString, Input: true})
		}
		if d.Kind == KindWebCount {
			cols = append(cols, ColumnDef{Name: "Count", Type: schema.TInt})
		} else {
			cols = append(cols,
				ColumnDef{Name: "URL", Type: schema.TString},
				ColumnDef{Name: "Rank", Type: schema.TInt},
				ColumnDef{Name: "Date", Type: schema.TString})
		}
		return cols
	}
}

// NumInputs returns the count of leading input (echoed) columns.
func (d *Def) NumInputs() int {
	if d.Kind == KindWebFetch {
		return 1
	}
	return 1 + MaxTerms
}

// InstantiateSchema creates a fresh schema for one occurrence of the table
// under the given alias.
func (d *Def) InstantiateSchema(alias string) *schema.Schema {
	if alias == "" {
		alias = d.TableName
	}
	defs := d.Columns()
	cols := make([]schema.Column, len(defs))
	for i, cd := range defs {
		cols[i] = schema.Column{ID: schema.NewAttrID(), Table: alias, Name: cd.Name, Type: cd.Type}
	}
	return schema.New(cols...)
}

// DefaultSearchExp builds the default parameterized search expression for
// the given bound term indices: "%1 near %2 near ... near %n", or the
// space-joined form for engines without NEAR support (paper footnote 1).
func (d *Def) DefaultSearchExp(boundIdx []int) string {
	sep := " near "
	if !d.Near {
		sep = " "
	}
	parts := make([]string, len(boundIdx))
	for i, n := range boundIdx {
		parts[i] = fmt.Sprintf("%%%d", n)
	}
	return strings.Join(parts, sep)
}

// appendQuery appends the search expression template instantiated with
// term values to buf in one pass, substituting %i (printf/scanf style,
// Section 3). A
// marker is '%' and one digit naming a term in 1..len(terms); markers are
// read from the template only, so a '%' inside a term value is text. Of
// several faults the highest-numbered unbound term is reported first, then
// a '%' that is no marker.
func appendQuery(buf []byte, template string, terms []string) ([]byte, error) {
	start, unbound, stray := len(buf), 0, false
	for i := 0; i < len(template); i++ {
		c := template[i]
		if c != '%' {
			buf = append(buf, c)
			continue
		}
		n := 0
		if i+1 < len(template) {
			n = int(template[i+1]) - '0'
		}
		if n < 1 || n > len(terms) || n > 9 {
			stray = true
			continue
		}
		i++
		if terms[n-1] == "" {
			unbound = max(unbound, n)
		}
		buf = append(buf, terms[n-1]...)
	}
	switch {
	case unbound > 0:
		return buf[:start], fmt.Errorf("search expression %q references unbound term %%%d", template, unbound)
	case stray:
		return buf[:start], fmt.Errorf("search expression %q references a term beyond T%d", template, len(terms))
	case len(bytes.TrimSpace(buf[start:])) == 0:
		return buf[:start], fmt.Errorf("empty search expression")
	}
	return buf, nil
}

// Registry resolves SQL table names to virtual table definitions.
type Registry struct {
	engines *search.Registry
}

// NewRegistry builds a resolver over the given engines.
func NewRegistry(engines *search.Registry) *Registry {
	return &Registry{engines: engines}
}

// IsVirtual reports whether the SQL table name denotes a virtual table.
func (r *Registry) IsVirtual(name string) bool {
	base := strings.ToLower(name)
	if i := strings.Index(base, "_"); i >= 0 {
		base = base[:i]
	}
	switch base {
	case "webcount", "webpages", "webfetch":
		return true
	default:
		return false
	}
}

// Resolve maps a SQL table name (e.g. "WebPages_Google", "WebCount") to a
// Def bound to the right engine.
func (r *Registry) Resolve(name string) (*Def, error) {
	lower := strings.ToLower(name)
	base, suffix := lower, ""
	if i := strings.Index(lower, "_"); i >= 0 {
		base, suffix = lower[:i], lower[i+1:]
	}
	var kind Kind
	switch base {
	case "webcount":
		kind = KindWebCount
	case "webpages":
		kind = KindWebPages
	case "webfetch":
		kind = KindWebFetch
	default:
		return nil, fmt.Errorf("%s is not a virtual table", name)
	}
	var eng search.Engine
	var err error
	if suffix == "" {
		eng, err = r.engines.Default()
	} else {
		eng, err = r.engines.Lookup(suffix)
	}
	if err != nil {
		return nil, fmt.Errorf("virtual table %s: %w", name, err)
	}
	return &Def{
		TableName: name,
		Kind:      kind,
		Engine:    eng,
		Near:      engineSupportsNear(eng.Name()),
	}, nil
}

// Source resolves a SQL table name to the source its scans call.
func (r *Registry) Source(name string) (*Source, error) {
	d, err := r.Resolve(name)
	if err != nil {
		return nil, err
	}
	return NewSource(d), nil
}

// engineSupportsNear reports whether the engine honors the NEAR operator.
// Of the two 1999-era engines the paper uses, AltaVista did and Google did
// not; any other registered engine is assumed NEAR-capable.
func engineSupportsNear(name string) bool {
	return !strings.EqualFold(name, "google")
}

// ---------------------------------------------------------------------------
// ExternalSource implementation (consumed by exec.EVScan / async.AEVScan)

// Source adapts a Def to the executor's ExternalSource interface. For
// WebCount/WebPages the call arguments are the input column values
// (SearchExp, T1..T8); WebPages carries one extra non-echoed argument, the
// rank limit. For WebFetch the single argument is the URL.
type Source struct {
	Def *Def
}

// NewSource wraps a definition.
func NewSource(d *Def) *Source { return &Source{Def: d} }

// Name implements exec.ExternalSource.
func (s *Source) Name() string { return s.Def.TableName }

// Destination implements exec.ExternalSource.
func (s *Source) Destination() string { return s.Def.Engine.Name() }

// NumEcho implements exec.ExternalSource.
func (s *Source) NumEcho() int { return s.Def.NumInputs() }

// errKey prefixes the key of arguments no call can be made from; the
// reason follows it.
const errKey = "!err|"

// AppendKey implements exec.ExternalSource: it decodes the argument vector
// once, into the call's canonical key — engine|kind|query|limit, or errKey
// and the message for arguments no call can be made from.
func (s *Source) AppendKey(buf []byte, args []types.Value) []byte {
	start := len(buf)
	buf = append(append(buf, s.Def.Engine.Name()...), '|')
	buf = append(append(buf, s.Def.Kind.String()...), '|')
	buf, limit, err := s.appendQueryAndLimit(buf, args)
	if err != nil {
		return append(append(buf[:start], errKey...), err.Error()...)
	}
	return strconv.AppendInt(append(buf, '|'), int64(limit), 10)
}

// Call implements exec.ExternalSource: the function that performs the
// search-engine request an AppendKey key names. The query is a substring
// of the key, so the function costs its closure only.
func (s *Source) Call(key string) func() ([]types.Tuple, error) {
	if msg, bad := strings.CutPrefix(key, errKey); bad {
		return func() ([]types.Tuple, error) { return nil, errors.New(msg) }
	}
	at := len(s.Def.Engine.Name()) + 1 + len(s.Def.Kind.String()) + 1
	end := strings.LastIndexByte(key, '|')
	limit, err := strconv.Atoi(key[end+1:])
	if end < at || err != nil {
		return func() ([]types.Tuple, error) {
			return nil, fmt.Errorf("%s: malformed call key %q", s.Def.TableName, key)
		}
	}
	q := key[at:end]
	return func() ([]types.Tuple, error) { return s.call(q, limit) }
}

// appendQueryAndLimit decodes the argument vector: the query text, appended
// to buf, and the rank limit.
func (s *Source) appendQueryAndLimit(buf []byte, args []types.Value) ([]byte, int, error) {
	if s.Def.Kind == KindWebFetch {
		if len(args) < 1 || args[0].IsNull() {
			return buf, 0, fmt.Errorf("WebFetch requires a bound URL")
		}
		return append(buf, args[0].AsString()...), 0, nil
	}
	if len(args) < 1+MaxTerms {
		return buf, 0, fmt.Errorf("%s expects %d arguments, got %d", s.Def.Kind, 1+MaxTerms, len(args))
	}
	if args[0].IsNull() {
		return buf, 0, fmt.Errorf("%s requires a bound SearchExp", s.Def.Kind)
	}
	var terms [MaxTerms]string
	for i := range terms {
		if !args[1+i].IsNull() {
			terms[i] = args[1+i].AsString()
		}
	}
	buf, err := appendQuery(buf, args[0].AsString(), terms[:])
	if err != nil {
		return buf, 0, err
	}
	limit := DefaultRankLimit
	if s.Def.Kind == KindWebPages {
		if len(args) != 1+MaxTerms+1 {
			return buf, 0, fmt.Errorf("WebPages expects a rank-limit argument")
		}
		n, err := args[1+MaxTerms].AsInt()
		if err != nil {
			return buf, 0, fmt.Errorf("WebPages rank limit: %w", err)
		}
		limit = int(n)
	}
	return buf, limit, nil
}

// call performs the search-engine request and shapes the response into
// output-column rows.
func (s *Source) call(q string, limit int) ([]types.Tuple, error) {
	switch s.Def.Kind {
	case KindWebCount:
		n, err := s.Def.Engine.Count(q)
		if err != nil {
			return nil, err
		}
		return []types.Tuple{{types.Int(n)}}, nil
	case KindWebPages:
		res, err := s.Def.Engine.Search(q, limit)
		if err != nil {
			return nil, err
		}
		rows := make([]types.Tuple, 0, len(res))
		for _, r := range res {
			if r.Rank > limit {
				continue
			}
			rows = append(rows, types.Tuple{types.Str(r.URL), types.Int(int64(r.Rank)), types.Str(r.Date)})
		}
		return rows, nil
	case KindWebFetch:
		body, err := s.Def.Engine.Fetch(q)
		if err == search.ErrNotFound {
			return []types.Tuple{{types.Str(""), types.Int(404)}}, nil
		}
		if err != nil {
			return nil, err
		}
		return []types.Tuple{{types.Str(body), types.Int(200)}}, nil
	default:
		return nil, fmt.Errorf("unknown virtual table kind %v", s.Def.Kind)
	}
}
