package shard

import (
	"os"
	"path/filepath"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Workers: []Member{{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{},
		{Workers: []Member{{ID: "", URL: "http://a"}}},
		{Workers: []Member{{ID: "a", URL: ""}}},
		{Workers: []Member{{ID: "a", URL: "http://a"}, {ID: "a", URL: "http://b"}}},
		{Workers: []Member{{ID: "a", URL: "http://a"}}, Budgets: map[string]int{"altavista": 0}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tier.json")
	body := `{"workers":[{"id":"w1","url":"http://h1"},{"id":"w2","url":"http://h2"}],
	          "vnodes":16,"budgets":{"altavista":8}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workers) != 2 || cfg.VNodes != 16 || cfg.Budgets["altavista"] != 8 {
		t.Errorf("bad parse: %+v", cfg)
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSplitBudget(t *testing.T) {
	cases := []struct{ budget, n, want int }{
		{8, 2, 4}, {8, 3, 3}, {1, 4, 1}, {0, 2, 1}, {5, 0, 5},
	}
	for _, c := range cases {
		if got := SplitBudget(c.budget, c.n); got != c.want {
			t.Errorf("SplitBudget(%d, %d) = %d, want %d", c.budget, c.n, got, c.want)
		}
	}
}

// TestRouteKeyAffinity: queries differing only in constants that do not
// touch the web calls still route by their search literals, and literal
// order must not matter — affinity is what makes the tier cache useful.
func TestRouteKey(t *testing.T) {
	a := RouteKey(`SELECT Name FROM States, WebCount WHERE Name = T1 AND T2 = 'crime'`)
	b := RouteKey(`select name from states, webcount where name = T1 AND T2 = 'crime'`)
	if a != b {
		t.Errorf("same literals, different keys:\n%q\n%q", a, b)
	}
	c := RouteKey(`SELECT Name FROM States, WebCount WHERE T2 = 'crime' AND Name = T1`)
	if a != c {
		t.Errorf("literal position changed the key:\n%q\n%q", a, c)
	}
	d := RouteKey(`SELECT Name FROM States, WebCount WHERE Name = T1 AND T2 = 'education'`)
	if a == d {
		t.Error("different search terms must route independently")
	}
	// No literals: normalized-SQL fallback, stable under whitespace.
	e := RouteKey("SELECT * FROM States")
	f := RouteKey("  select *\n FROM  states ")
	if e != f {
		t.Errorf("fallback key unstable: %q vs %q", e, f)
	}
	// Unlexable input must still produce some deterministic key.
	if RouteKey("💥 !@#") != RouteKey("💥   !@#") {
		t.Error("fallback key for unlexable input unstable")
	}
}
