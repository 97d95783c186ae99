package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Loader discovers packages with `go list -json` and type-checks them
// from source, resolving imports inside the module directly and standard
// library imports from GOROOT (including GOROOT/src/vendor). The module
// is dependency-free by policy, so no other resolution is needed; an
// unresolvable import degrades to a missing types.Info entry rather than
// failing the run.
type Loader struct {
	ModuleRoot string
	modulePath string

	fset *token.FileSet
	bctx build.Context
	// imported memoizes type-checked dependencies by import path.
	imported map[string]*types.Package
	// depth guards against import cycles in degenerate inputs.
	importing map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir (dir or
// an ancestor must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	bctx := build.Default
	// Cgo files cannot be type-checked from source; with cgo disabled the
	// standard library offers pure-Go fallbacks for everything we import.
	bctx.CgoEnabled = false
	return &Loader{
		ModuleRoot: root,
		modulePath: modPath,
		fset:       token.NewFileSet(),
		bctx:       bctx,
		imported:   make(map[string]*types.Package),
		importing:  make(map[string]bool),
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	Name       string
	ImportPath string
	Dir        string
	GoFiles    []string
}

// LoadPatterns resolves package patterns ("./...") via `go list -json`
// and loads each matched package with full bodies and comments.
func (ld *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json=Name,ImportPath,Dir,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = ld.ModuleRoot
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*Package
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := ld.loadFiles(lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir loads every non-test .go file in dir as one package under the
// given import path. It exists for fixture packages (testdata/src/...)
// that `go list` does not see; asPath positions them inside the scopes
// the rules care about (e.g. "repro/internal/async").
func (ld *Loader) LoadDir(dir, asPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return ld.loadFiles(asPath, files)
}

// loadFiles parses and permissively type-checks one package.
func (ld *Loader) loadFiles(importPath string, filenames []string) (*Package, error) {
	var astFiles []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(ld.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", fn, err)
		}
		astFiles = append(astFiles, f)
	}
	pkg := &Package{
		Path: importPath,
		Name: astFiles[0].Name.Name,
		Fset: ld.fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
		Files: astFiles,
	}
	conf := types.Config{
		Importer:    ld,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Permissive: partial type information is still useful to rules, and
	// every rule falls back to syntactic matching on a missing entry.
	tpkg, _ := conf.Check(importPath, ld.fset, astFiles, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// Import implements types.Importer over module-local and GOROOT source.
func (ld *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.imported[path]; ok {
		return p, nil
	}
	if ld.importing[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	dir, err := ld.resolveDir(path)
	if err != nil {
		return nil, err
	}
	bp, err := ld.bctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %v", path, err)
	}
	var astFiles []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		astFiles = append(astFiles, f)
	}
	ld.importing[path] = true
	defer delete(ld.importing, path)
	conf := types.Config{
		Importer:         ld,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Error:            func(error) {}, // best effort: signatures are what we need
	}
	tpkg, _ := conf.Check(path, ld.fset, astFiles, nil)
	if tpkg == nil {
		return nil, fmt.Errorf("type-check %q failed", path)
	}
	tpkg.MarkComplete()
	ld.imported[path] = tpkg
	return tpkg, nil
}

// resolveDir maps an import path to a source directory: module-local
// paths under the module root, everything else from GOROOT (with the
// std vendor directory as fallback).
func (ld *Loader) resolveDir(path string) (string, error) {
	if path == ld.modulePath {
		return ld.ModuleRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, ld.modulePath+"/"); ok {
		return filepath.Join(ld.ModuleRoot, filepath.FromSlash(rest)), nil
	}
	goroot := runtime.GOROOT()
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot resolve import %q (module has no external dependencies)", path)
}
