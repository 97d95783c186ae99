package schema

import "testing"

func col(table, name string, ty Type) Column {
	return Column{ID: NewAttrID(), Table: table, Name: name, Type: ty}
}

func TestNewAttrIDUnique(t *testing.T) {
	seen := make(map[AttrID]bool)
	for i := 0; i < 1000; i++ {
		id := NewAttrID()
		if seen[id] {
			t.Fatalf("duplicate AttrID %d", id)
		}
		seen[id] = true
	}
}

func TestParseType(t *testing.T) {
	for in, want := range map[string]Type{
		"INT": TInt, "integer": TInt, "BIGINT": TInt,
		"FLOAT": TFloat, "real": TFloat, "DOUBLE": TFloat,
		"VARCHAR": TString, "char": TString, "TEXT": TString, "string": TString,
	} {
		got, err := ParseType(in)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("unknown type should error")
	}
}

func TestResolve(t *testing.T) {
	name := col("States", "Name", TString)
	pop := col("States", "Population", TInt)
	t1 := col("WebCount", "T1", TString)
	s := New(name, pop, t1)

	got, err := s.Resolve("", "name") // case-insensitive
	if err != nil || got.ID != name.ID {
		t.Fatalf("Resolve name: %v %v", got, err)
	}
	got, err = s.Resolve("states", "Population")
	if err != nil || got.ID != pop.ID {
		t.Fatalf("Resolve qualified: %v %v", got, err)
	}
	if _, err := s.Resolve("", "Nope"); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := s.Resolve("Other", "Name"); err == nil {
		t.Error("wrong qualifier should error")
	}
	// Ambiguity.
	dup := New(col("A", "X", TInt), col("B", "X", TInt))
	if _, err := dup.Resolve("", "X"); err == nil {
		t.Error("ambiguous resolve should error")
	}
	if _, err := dup.Resolve("A", "X"); err != nil {
		t.Error("qualified resolve disambiguates")
	}

	// Lookup is Resolve without the error: the match count, and the first
	// match. Resolve's messages are what users see and stay as they were.
	for _, c := range []struct {
		s           *Schema
		table, name string
		matches     int
		first       AttrID
		msg         string
	}{
		{s, "", "NAME", 1, name.ID, ""},
		{s, "states", "Population", 1, pop.ID, ""},
		{s, "", "Nope", 0, 0, "unknown column Nope"},
		{s, "Other", "Name", 0, 0, "unknown column Other.Name"},
		{dup, "", "X", 2, dup.Cols[0].ID, "ambiguous column X (matches 2 tables)"},
	} {
		got, n := c.s.Lookup(c.table, c.name)
		if n != c.matches || got.ID != c.first {
			t.Errorf("Lookup(%q, %q) = %v, %d; want attr %d, %d matches", c.table, c.name, got, n, c.first, c.matches)
		}
		_, err := c.s.Resolve(c.table, c.name)
		if (err == nil) != (c.msg == "") || (err != nil && err.Error() != c.msg) {
			t.Errorf("Resolve(%q, %q) error = %v, want %q", c.table, c.name, err, c.msg)
		}
	}
}

func TestIndexOfAndByID(t *testing.T) {
	a, b := col("T", "A", TInt), col("T", "B", TString)
	s := New(a, b)
	if s.IndexOf(a.ID) != 0 || s.IndexOf(b.ID) != 1 {
		t.Error("IndexOf positions")
	}
	if s.IndexOf(AttrID(999999)) != -1 {
		t.Error("missing attr should be -1")
	}
	got, ok := s.ByID(b.ID)
	if !ok || got.Name != "B" {
		t.Error("ByID")
	}
}

func TestConcatAndAttrIDs(t *testing.T) {
	a, b, c := col("L", "A", TInt), col("L", "B", TInt), col("R", "C", TInt)
	s := New(a, b).Concat(New(c))
	if s.Len() != 3 || s.Cols[2].ID != c.ID {
		t.Error("concat")
	}
	ids := s.AttrIDs()
	for _, cc := range []Column{a, b, c} {
		if !ids[cc.ID] {
			t.Errorf("AttrIDs missing %v", cc.Name)
		}
	}
}

func TestProject(t *testing.T) {
	a, b, c := col("T", "A", TInt), col("T", "B", TInt), col("T", "C", TInt)
	s := New(a, b, c)
	p, err := s.Project([]AttrID{c.ID, a.ID})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Cols[0].Name != "C" || p.Cols[1].Name != "A" {
		t.Errorf("project order: %v", p)
	}
	if _, err := s.Project([]AttrID{AttrID(424242)}); err == nil {
		t.Error("projecting a missing attribute should error")
	}
}

func TestQualifiedNameAndString(t *testing.T) {
	c1 := col("States", "Name", TString)
	if c1.QualifiedName() != "States.Name" {
		t.Error("qualified name")
	}
	c2 := Column{Name: "C"}
	if c2.QualifiedName() != "C" {
		t.Error("unqualified name")
	}
	s := New(c1, c2)
	if s.String() != "(States.Name, C)" {
		t.Errorf("schema string: %s", s)
	}
}
