// Package lint implements wsqlint, a zero-dependency static analyzer
// suite for this repository's project invariants: every network call
// bounded by a context, all simulated randomness flowing through one
// seeded stream, every lock released on every path and no channel
// operation under one. `go vet` knows nothing of these, and the race
// detector can only sample them. Each rule here encodes one as a
// compile-time check; `make lint` (folded into `make check`) gates the
// tree on all of them. The order locks are taken in is not a rule here:
// internal/lockrank declares it and checks it where they are taken.
//
// The suite is built entirely on the standard library: go/ast, go/parser
// and go/types for analysis, and one `go list -json` invocation for
// package discovery. Diagnostics carry file:line:col positions and can be
// emitted as stable JSON for CI annotation. There is no suppression
// comment: a finding is fixed at the source or the rule is changed.
//
// Every rule here has been measured by mutation (DESIGN.md §7): its bug
// was seeded into the real tree, and the rule stays because for at least
// one such mutant nothing else in `make check` fails.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one reported rule violation.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Package is one loaded, parsed and (best-effort) type-checked package
// presented to rules.
type Package struct {
	// Path is the import path ("repro/internal/async").
	Path string
	// Name is the package name ("async", "main").
	Name string
	Fset *token.FileSet
	// Files holds the parsed non-test sources, comments included.
	Files []*ast.File
	// Info carries the type-checker's findings. Checking is permissive:
	// entries may be missing when a dependency failed to load, so rules
	// must degrade to syntactic matching when a lookup misses.
	Info *types.Info
	// Types is the checked package object (possibly incomplete).
	Types *types.Package
	// TypeErrors records type-checking problems, for -debug output; they
	// do not fail the run.
	TypeErrors []error
}

// Position resolves a token.Pos against the package's file set.
func (p *Package) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// Rule is one invariant checker.
type Rule interface {
	// Name is the identifier used in output and by wsqlint -rules.
	Name() string
	// Doc is a one-line description of the encoded invariant.
	Doc() string
	// Check reports the rule's diagnostics over the whole loaded package
	// set and its call graph.
	Check(prog *Program) []Diagnostic
}

// AllRules returns the full suite in stable order.
func AllRules() []Rule {
	return []Rule{
		newCtxFlow(),
		newSeededRand(),
		newLockScope(),
	}
}

// RuleNames returns the names of rules, in order.
func RuleNames(rules []Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name()
	}
	return out
}

// Run builds the Program once, checks it with every rule, and returns the
// findings sorted by position then rule.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	prog := BuildProgram(pkgs)
	var out []Diagnostic
	for _, r := range rules {
		out = append(out, r.Check(prog)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}
