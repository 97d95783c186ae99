// Command wsqlint runs the project-invariant static analyzer suite
// (internal/lint) over the module and reports diagnostics with
// file:line:col positions. It is part of the check gate (`make lint`,
// folded into `make check`): exit status is 0 when clean, 1 when any
// diagnostic fires, 2 on usage or load errors.
//
// Usage:
//
//	wsqlint [-json] [-rules r1,r2] [-list] [packages]
//
// Packages default to ./... relative to the enclosing module. The
// -json mode emits a stable machine-readable report for CI annotation:
//
//	{"diagnostics":[{"file":...,"line":N,"col":N,"rule":...,"message":...}],"count":N}
//
// There is no suppression comment: a finding is fixed at the source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

type jsonReport struct {
	Diagnostics []jsonDiag `json:"diagnostics"`
	Count       int        `json:"count"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("wsqlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as stable JSON")
	ruleList := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	debug := fs.Bool("debug", false, "print type-checker noise (never affects exit status)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rules := lint.AllRules()
	if *list {
		for _, r := range rules {
			fmt.Printf("%-14s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	if *ruleList != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*ruleList, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var selected []lint.Rule
		for _, r := range rules {
			if want[r.Name()] {
				delete(want, r.Name())
				selected = append(selected, r)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "wsqlint: unknown rule %q (see -list)\n", name)
			return 2
		}
		rules = selected
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsqlint: %v\n", err)
		return 2
	}
	ld, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsqlint: %v\n", err)
		return 2
	}
	pkgs, err := ld.LoadPatterns(fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsqlint: %v\n", err)
		return 2
	}
	if *debug {
		for _, p := range pkgs {
			for _, e := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "wsqlint: debug: %s: %v\n", p.Path, e)
			}
		}
	}

	diags := lint.Run(pkgs, rules)
	if *jsonOut {
		report := jsonReport{Diagnostics: make([]jsonDiag, 0, len(diags)), Count: len(diags)}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiag{
				File: relPath(cwd, d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "wsqlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relPath shortens filenames for readability without destabilizing the
// JSON format (paths stay within the module).
func relPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
