package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Fixture tests: each package under testdata/src is loaded under an
// import path that places it in the rule's scope, the named rules run,
// and the resulting diagnostics must line up exactly with the
//
//	// want "regexp"
//
// markers in the fixture sources — no missing, no unexpected.

var wantRx = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

type wantMark struct {
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// parseWants maps base filename -> line -> markers for every fixture
// file in dir.
func parseWants(t *testing.T, dir string) map[string]map[int][]*wantMark {
	t.Helper()
	wants := make(map[string]map[int][]*wantMark)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		perLine := make(map[int][]*wantMark)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRx.FindAllStringSubmatch(line, -1) {
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", e.Name(), i+1, m[1], err)
				}
				rx, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, pat, err)
				}
				perLine[i+1] = append(perLine[i+1], &wantMark{rx: rx, raw: pat})
			}
		}
		if len(perLine) > 0 {
			wants[e.Name()] = perLine
		}
	}
	return wants
}

func rulesByName(t *testing.T, names []string) []Rule {
	t.Helper()
	byName := make(map[string]Rule)
	for _, r := range AllRules() {
		byName[r.Name()] = r
	}
	var out []Rule
	for _, n := range names {
		r, ok := byName[n]
		if !ok {
			t.Fatalf("unknown rule %q", n)
		}
		out = append(out, r)
	}
	return out
}

func loadFixture(t *testing.T, dir, asPath string) *Package {
	t.Helper()
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := ld.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

func runFixture(t *testing.T, name, asPath string, ruleNames []string) {
	dir := filepath.Join("testdata", "src", name)
	pkg := loadFixture(t, dir, asPath)
	diags := Run([]*Package{pkg}, rulesByName(t, ruleNames))
	wants := parseWants(t, dir)

	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		marks := wants[base][d.Pos.Line]
		found := false
		for _, m := range marks {
			if !m.matched && m.rx.MatchString(d.Message) {
				m.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, perLine := range wants {
		for line, marks := range perLine {
			for _, m := range marks {
				if !m.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, m.raw)
				}
			}
		}
	}
}

// fixtureCases names, per fixture package, the import path it is loaded
// under and the rules run over it.
var fixtureCases = []struct {
	dir    string
	asPath string
	rules  []string
}{
	{"ctxflow", "repro/internal/async", []string{"ctxflow"}},
	{"seededrand", "repro/internal/websim", []string{"seededrand"}},
	// The blessed file: internal/search/rand.go may import math/rand.
	{"seededrand_allowed", "repro/internal/search", []string{"seededrand"}},
	{"lockscope", "repro/internal/server", []string{"lockscope"}},
	{"lockscope_pump", "repro/internal/async", []string{"lockscope"}},
	{"goroutinectx", "repro/internal/async", []string{"goroutinectx"}},
	{"lockorder", "repro/internal/server", []string{"lockorder"}},
	{"errjoin", "repro/internal/exec", []string{"errjoin"}},
}

func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) { runFixture(t, tc.dir, tc.asPath, tc.rules) })
	}
}

// TestEveryRuleFiresOnItsFixture: a rule stays in the suite because a
// mutant of the real tree gets past everything else (DESIGN.md §7), and
// that mutant's shape is a want-marked case of the rule's fixture. A rule
// with no fixture, or a fixture with no expected diagnostic, has lost the
// evidence it is kept on.
func TestEveryRuleFiresOnItsFixture(t *testing.T) {
	wants := make(map[string]int)
	for _, tc := range fixtureCases {
		n := 0
		for _, perLine := range parseWants(t, filepath.Join("testdata", "src", tc.dir)) {
			n += len(perLine)
		}
		for _, r := range tc.rules {
			wants[r] += n
		}
	}
	for _, name := range RuleNames(AllRules()) {
		if wants[name] == 0 {
			t.Errorf("rule %s has no fixture case with a want marker", name)
		}
	}
}

// TestRuleMetadata pins the suite composition and that every rule has a
// one-line doc (used by wsqlint -list).
func TestRuleMetadata(t *testing.T) {
	want := []string{
		"ctxflow", "seededrand", "lockscope", "goroutinectx", "lockorder",
		"errjoin",
	}
	got := RuleNames(AllRules())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AllRules() = %v, want %v", got, want)
	}
	for _, r := range AllRules() {
		if strings.TrimSpace(r.Doc()) == "" {
			t.Errorf("rule %s has empty Doc()", r.Name())
		}
		if strings.Contains(r.Doc(), "\n") {
			t.Errorf("rule %s Doc() is not one line", r.Name())
		}
	}
}

// TestRepoClean runs the full suite over the module itself: the tree
// must lint clean, since `make check` gates on it.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := ld.LoadPatterns("./...")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	diags := Run(pkgs, AllRules())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}
