package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose documents whose test citations and quoted golden files are
// checked against the tree.
var docs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

var (
	citedTest    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	declaredTest = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// declaredTests returns the name of every test, benchmark and fuzz target
// a _test.go file in the repository declares (fixtures under testdata/
// are not tests).
func declaredTests(t *testing.T) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaredTest.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsCiteDeclaredTests fails when a document cites a Test…,
// Benchmark… or Fuzz… name that no test declares. A citation names what
// `go test -run` would select, so it counts as declared when it is a
// prefix of a declared name (TestReuse selects TestReuseTracedAndUntraced…).
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := declaredTests(t)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range citedTest.FindAllString(string(text), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			found := false
			for _, d := range declared {
				if strings.HasPrefix(d, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
}

// goldenQuote marks a fenced block that quotes a file of the tree:
//
//	<!-- quote: internal/harness/testdata/table1_paper.txt -->
//	```
//	…the file's bytes…
//	```
var goldenQuote = regexp.MustCompile("(?s)<!-- quote: (\\S+) -->\n```\n(.*?)```\n")

// TestDocsQuoteGoldenFiles holds every quoted block to the file it names,
// byte for byte, so a number a test regenerates is never retyped by hand.
func TestDocsQuoteGoldenFiles(t *testing.T) {
	quotes := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goldenQuote.FindAllStringSubmatch(string(text), -1) {
			quotes++
			want, err := os.ReadFile(m[1])
			if err != nil {
				t.Errorf("%s quotes %s: %v", doc, m[1], err)
				continue
			}
			if m[2] != string(want) {
				t.Errorf("%s's quote of %s differs from the file:\n%s\nfile:\n%s", doc, m[1], m[2], want)
			}
		}
	}
	if quotes == 0 {
		t.Error("no document quotes a golden file")
	}
}
