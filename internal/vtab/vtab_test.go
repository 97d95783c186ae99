package vtab

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/types"
)

// stubEngine scripts counts/results for Source tests.
type stubEngine struct {
	name     string
	lastQ    string
	lastK    int
	fetchErr error
}

func (s *stubEngine) Name() string { return s.name }
func (s *stubEngine) Count(q string) (int64, error) {
	s.lastQ = q
	return int64(len(q)), nil
}
func (s *stubEngine) Search(q string, k int) ([]search.Result, error) {
	s.lastQ, s.lastK = q, k
	var out []search.Result
	for i := 1; i <= k && i <= 4; i++ {
		out = append(out, search.Result{URL: fmt.Sprintf("u%d", i), Rank: i, Date: "1999-05-05"})
	}
	return out, nil
}
func (s *stubEngine) Fetch(url string) (string, error) {
	if s.fetchErr != nil {
		return "", s.fetchErr
	}
	return "body:" + url, nil
}

func newRegistry() (*Registry, *stubEngine, *stubEngine) {
	er := search.NewRegistry()
	av := &stubEngine{name: "altavista"}
	g := &stubEngine{name: "google"}
	er.Register(av, "AV")
	er.Register(g, "G")
	return NewRegistry(er), av, g
}

func TestIsVirtual(t *testing.T) {
	r, _, _ := newRegistry()
	for _, name := range []string{"WebCount", "webpages", "WEBFETCH", "WebCount_AV", "WebPages_Google"} {
		if !r.IsVirtual(name) {
			t.Errorf("%s should be virtual", name)
		}
	}
	for _, name := range []string{"States", "Web", "WebCounter"} {
		if r.IsVirtual(name) {
			t.Errorf("%s should not be virtual", name)
		}
	}
}

func TestResolveEngines(t *testing.T) {
	r, av, g := newRegistry()
	d, err := r.Resolve("WebCount_AV")
	if err != nil || d.Engine != search.Engine(av) || d.Kind != KindWebCount {
		t.Fatalf("resolve AV: %+v %v", d, err)
	}
	if !d.Near {
		t.Error("altavista supports NEAR")
	}
	d, err = r.Resolve("WebPages_Google")
	if err != nil || d.Engine != search.Engine(g) || d.Kind != KindWebPages {
		t.Fatalf("resolve google: %+v %v", d, err)
	}
	if d.Near {
		t.Error("google does not support NEAR (paper footnote 1)")
	}
	// Unsuffixed uses the default engine (first by name: altavista).
	d, err = r.Resolve("WebCount")
	if err != nil || d.Engine.Name() != "altavista" {
		t.Fatalf("default engine: %+v %v", d, err)
	}
	if _, err := r.Resolve("WebCount_Lycos"); err == nil {
		t.Error("unknown engine suffix should error")
	}
	if _, err := r.Resolve("States"); err == nil {
		t.Error("non-virtual resolve should error")
	}
}

func TestColumnsShape(t *testing.T) {
	r, _, _ := newRegistry()
	wc, _ := r.Resolve("WebCount")
	cols := wc.Columns()
	if len(cols) != 1+MaxTerms+1 {
		t.Fatalf("WebCount columns: %d", len(cols))
	}
	if cols[0].Name != "SearchExp" || !cols[0].Input {
		t.Error("SearchExp first")
	}
	if cols[len(cols)-1].Name != "Count" || cols[len(cols)-1].Input {
		t.Error("Count last, output")
	}
	wp, _ := r.Resolve("WebPages")
	pc := wp.Columns()
	if len(pc) != 1+MaxTerms+3 {
		t.Fatalf("WebPages columns: %d", len(pc))
	}
	names := []string{pc[len(pc)-3].Name, pc[len(pc)-2].Name, pc[len(pc)-1].Name}
	if names[0] != "URL" || names[1] != "Rank" || names[2] != "Date" {
		t.Errorf("WebPages outputs: %v", names)
	}
	wf, _ := r.Resolve("WebFetch")
	fc := wf.Columns()
	if len(fc) != 3 || fc[0].Name != "URL" || !fc[0].Input {
		t.Errorf("WebFetch columns: %+v", fc)
	}
}

func TestInstantiateSchemaFreshIDs(t *testing.T) {
	r, _, _ := newRegistry()
	d, _ := r.Resolve("WebCount")
	s1 := d.InstantiateSchema("C")
	s2 := d.InstantiateSchema("S")
	if s1.Cols[0].Table != "C" || s2.Cols[0].Table != "S" {
		t.Error("alias labels")
	}
	if s1.Cols[0].ID == s2.Cols[0].ID {
		t.Error("fresh AttrIDs per instantiation")
	}
}

func TestDefaultSearchExp(t *testing.T) {
	r, _, _ := newRegistry()
	av, _ := r.Resolve("WebCount_AV")
	if got := av.DefaultSearchExp([]int{1, 2, 3}); got != "%1 near %2 near %3" {
		t.Errorf("AV default: %q", got)
	}
	g, _ := r.Resolve("WebCount_Google")
	if got := g.DefaultSearchExp([]int{1, 2}); got != "%1 %2" {
		t.Errorf("google default: %q", got)
	}
	if got := av.DefaultSearchExp([]int{1}); got != "%1" {
		t.Errorf("single term: %q", got)
	}
}

func TestBuildQuery(t *testing.T) {
	terms := []string{"Colorado", "Denver", "", "", "", "", "", ""}
	for _, c := range []struct {
		template string
		terms    []string
		want     string // the query, or with wantErr a fragment of the error
		wantErr  bool
	}{
		{"%1 near %2", terms, "Colorado near Denver", false},
		// Constant expression with no markers is allowed.
		{"four corners", terms, "four corners", false},
		// Markers are read from the template only: a '%' in a term value is
		// text, and a marker inside a value is not substituted again.
		{"%1", []string{"100% cotton"}, "100% cotton", false},
		{"%1 near %2", []string{"alpha", "%1"}, "alpha near %1", false},
		// One digit names a term: %10 is term 1 followed by a 0.
		{"%10", []string{"a", "b", "c", "d", "e", "f", "g", "h"}, "a0", false},
		{"%1 near %3", terms, "unbound term %3", true},
		{"%1 %4 %3", terms, "unbound term %4", true}, // the highest-numbered one
		{"%9", terms, "beyond T8", true},
		{"%0", terms, "beyond T8", true},
		{"%1 %", terms, "beyond T8", true},
		{"%3 %", terms, "unbound term %3", true}, // unbound outranks a stray %
		{"", terms, "empty search expression", true},
		{" %3 ", []string{"a", "b", " "}, "empty search expression", true},
	} {
		// The query is appended after a key's prefix, which a fault leaves
		// as it was.
		buf, err := appendQuery([]byte("AV|"), c.template, c.terms)
		q := strings.TrimPrefix(string(buf), "AV|")
		switch {
		case !strings.HasPrefix(string(buf), "AV|"):
			t.Errorf("appendQuery(%q) = %q, %v; the prefix is gone", c.template, buf, err)
		case c.wantErr && (err == nil || !strings.Contains(err.Error(), c.want) || q != ""):
			t.Errorf("appendQuery(%q) = %q, %v; want an error containing %q", c.template, q, err, c.want)
		case !c.wantErr && (err != nil || q != c.want):
			t.Errorf("appendQuery(%q) = %q, %v; want %q", c.template, q, err, c.want)
		}
	}
}

// callSource makes the request for args and performs it.
func callSource(src *Source, args []types.Value) ([]types.Tuple, error) {
	return src.Call(cacheKey(src, args))()
}

// cacheKey is the key AppendKey builds for args.
func cacheKey(src *Source, args []types.Value) string {
	return string(src.AppendKey(nil, args))
}

func callArgs(searchExp string, terms ...string) []types.Value {
	args := make([]types.Value, 1+MaxTerms)
	args[0] = types.Str(searchExp)
	for i := range args[1:] {
		args[1+i] = types.Null()
	}
	for i, term := range terms {
		args[1+i] = types.Str(term)
	}
	return args
}

func TestSourceWebCountCall(t *testing.T) {
	r, av, _ := newRegistry()
	d, _ := r.Resolve("WebCount_AV")
	src := NewSource(d)
	if src.NumEcho() != 1+MaxTerms {
		t.Errorf("NumEcho: %d", src.NumEcho())
	}
	rows, err := callSource(src, callArgs("%1 near %2", "Colorado", "four corners"))
	if err != nil {
		t.Fatal(err)
	}
	if av.lastQ != "Colorado near four corners" {
		t.Errorf("query sent: %q", av.lastQ)
	}
	if len(rows) != 1 || rows[0][0].I != int64(len(av.lastQ)) {
		t.Errorf("rows: %v", rows)
	}
	// The query is cut out of the key; a long one outgrows the key buffer.
	long := strings.Repeat("x", 200)
	if _, err := callSource(src, callArgs("%1 near %2", long, "y")); err != nil || av.lastQ != long+" near y" {
		t.Errorf("long query sent: %q %v", av.lastQ, err)
	}
}

func TestSourceWebPagesCall(t *testing.T) {
	r, av, _ := newRegistry()
	d, _ := r.Resolve("WebPages_AV")
	src := NewSource(d)
	args := append(callArgs("%1", "Utah"), types.Int(2)) // rank limit 2
	rows, err := callSource(src, args)
	if err != nil {
		t.Fatal(err)
	}
	if av.lastK != 2 {
		t.Errorf("limit passed to engine: %d", av.lastK)
	}
	if len(rows) != 2 || rows[0][1].I != 1 || rows[1][1].I != 2 {
		t.Errorf("rows: %v", rows)
	}
	if rows[0][2].AsString() != "1999-05-05" {
		t.Errorf("date column: %v", rows[0])
	}
	// Missing rank-limit argument.
	if _, err := callSource(src, callArgs("%1", "Utah")); err == nil {
		t.Error("WebPages requires a rank-limit argument")
	}
}

func TestSourceWebFetchCall(t *testing.T) {
	r, av, _ := newRegistry()
	d, _ := r.Resolve("WebFetch_AV")
	src := NewSource(d)
	if src.NumEcho() != 1 {
		t.Errorf("NumEcho: %d", src.NumEcho())
	}
	rows, err := callSource(src, []types.Value{types.Str("www.x.com")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsString() != "body:www.x.com" || rows[0][1].I != 200 {
		t.Errorf("rows: %v", rows)
	}
	// Not found surfaces as a 404 row, not an error (the crawler keeps going).
	av.fetchErr = search.ErrNotFound
	rows, err = callSource(src, []types.Value{types.Str("gone")})
	if err != nil || len(rows) != 1 || rows[0][1].I != 404 {
		t.Errorf("404 row: %v %v", rows, err)
	}
	// Unbound URL.
	if _, err := callSource(src, []types.Value{types.Null()}); err == nil {
		t.Error("null URL should error")
	}
}

func TestSourceCallValidation(t *testing.T) {
	r, _, _ := newRegistry()
	d, _ := r.Resolve("WebCount")
	src := NewSource(d)
	// Null SearchExp.
	args := callArgs("%1", "x")
	args[0] = types.Null()
	if _, err := callSource(src, args); err == nil {
		t.Error("null SearchExp should error")
	}
	// Too few args.
	if _, err := callSource(src, []types.Value{types.Str("%1")}); err == nil {
		t.Error("short args should error")
	}
}

func TestCacheKeyDistinguishes(t *testing.T) {
	r, _, _ := newRegistry()
	av, _ := r.Resolve("WebCount_AV")
	g, _ := r.Resolve("WebCount_Google")
	kAV := cacheKey(NewSource(av), callArgs("%1", "Utah"))
	kG := cacheKey(NewSource(g), callArgs("%1", "Utah"))
	if kAV == kG {
		t.Error("cache keys must be engine-specific")
	}
	k1 := cacheKey(NewSource(av), callArgs("%1", "Utah"))
	if k1 != kAV {
		t.Error("cache keys must be deterministic")
	}
	wp, _ := r.Resolve("WebPages_AV")
	kp2 := cacheKey(NewSource(wp), append(callArgs("%1", "Utah"), types.Int(2)))
	kp5 := cacheKey(NewSource(wp), append(callArgs("%1", "Utah"), types.Int(5)))
	if kp2 == kp5 {
		t.Error("rank limit must be part of the key")
	}
}

// TestCacheKeyBytes pins the key's bytes: it is the result cache's key and
// the tier's peer-routing key, so workers of different builds must agree
// on it. Request renders it as CacheKey used to, Engine|Kind|query|limit or
// "!err|" and the message, for all three table kinds.
func TestCacheKeyBytes(t *testing.T) {
	r, _, _ := newRegistry()
	av, _ := r.Resolve("WebCount_AV")
	wp, _ := r.Resolve("WebPages_Google")
	wf, _ := r.Resolve("WebFetch_AV")
	for _, c := range []struct{ got, want string }{
		{cacheKey(NewSource(wf), []types.Value{types.Str("www.x.com")}), "altavista|WebFetch|www.x.com|0"},
		{cacheKey(NewSource(wf), []types.Value{types.Null()}), "!err|WebFetch requires a bound URL"},
		{cacheKey(NewSource(wp), callArgs("%1", "Utah")), "!err|WebPages expects a rank-limit argument"},
		{cacheKey(NewSource(av), callArgs("%1 %2", "50% off", "%1")), "altavista|WebCount|50% off %1|20"},
		{cacheKey(NewSource(av), callArgs("%1 near %2", "Utah", "four corners")), "altavista|WebCount|Utah near four corners|20"},
		{cacheKey(NewSource(wp), append(callArgs("%1", "Utah"), types.Int(5))), "google|WebPages|Utah|5"},
		{cacheKey(NewSource(av), callArgs("%3", "Utah")), `!err|search expression "%3" references unbound term %3`},
		{cacheKey(NewSource(av), nil), "!err|WebCount expects 9 arguments, got 0"},
	} {
		if c.got != c.want {
			t.Errorf("cache key %q, want %q", c.got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindWebCount.String() != "WebCount" || KindWebPages.String() != "WebPages" || KindWebFetch.String() != "WebFetch" {
		t.Error("kind names")
	}
}

func TestSchemaTypes(t *testing.T) {
	r, _, _ := newRegistry()
	d, _ := r.Resolve("WebPages")
	s := d.InstantiateSchema("")
	rank, err := s.Resolve("", "Rank")
	if err != nil || rank.Type != schema.TInt {
		t.Errorf("rank type: %+v %v", rank, err)
	}
	if !strings.EqualFold(s.Cols[0].Table, "WebPages") {
		t.Errorf("default alias: %v", s.Cols[0])
	}
}
