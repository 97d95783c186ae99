package lint

import (
	"path/filepath"
	"strings"
)

// seededRand enforces the reproducibility contract of the fault and
// latency simulators: every random draw in the system flows through the
// one locked, seeded stream in internal/search/rand.go (search.Rand).
// A stray math/rand import anywhere else silently breaks seed-for-seed
// reproduction of chaos and latency runs — exactly the class of
// regression the golden Table-1 suite can only catch after the fact.
type seededRand struct{}

func newSeededRand() *seededRand { return &seededRand{} }

func (*seededRand) Name() string { return "seededrand" }

func (*seededRand) Doc() string {
	return "math/rand may be imported only by internal/search/rand.go; all other randomness must flow through the seeded search.Rand"
}

func (r *seededRand) Check(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			filename := pkg.Position(f.Pos()).Filename
			if pathMatch(pkg.Path, "internal/search") && filepath.Base(filename) == "rand.go" {
				continue // the one blessed wrapper
			}
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p != "math/rand" && p != "math/rand/v2" {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:  pkg.Position(imp.Pos()),
					Rule: r.Name(),
					Message: "direct " + p + " import breaks seeded reproducibility; " +
						"use the locked search.Rand stream (internal/search/rand.go) instead",
				})
			}
		}
	}
	// Dot-imports aside, use without import is impossible, so flagging
	// the import spec covers every call site in one diagnostic.
	return diags
}
