package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read pipe: %v", err)
	}
	return string(data)
}

func TestListExitsZero(t *testing.T) {
	var code int
	out := captureStdout(t, func() { code = run([]string{"-list"}) })
	if code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	for _, rule := range []string{"ctxflow", "seededrand", "lockscope"} {
		if !containsLine(out, rule) {
			t.Errorf("-list output missing rule %s:\n%s", rule, out)
		}
	}
}

func containsLine(out, prefix string) bool {
	for _, line := range splitLines(out) {
		if len(line) >= len(prefix) && line[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}

func TestUnknownRuleExitsTwo(t *testing.T) {
	if code := run([]string{"-rules", "nosuchrule"}); code != 2 {
		t.Fatalf("run(-rules nosuchrule) = %d, want 2", code)
	}
}

// TestJSONCleanPackage lints a known-clean package and checks the
// stable JSON shape.
func TestJSONCleanPackage(t *testing.T) {
	var code int
	out := captureStdout(t, func() { code = run([]string{"-json", "./internal/search"}) })
	if code != 0 {
		t.Fatalf("run(-json ./internal/search) = %d, want 0\n%s", code, out)
	}
	var report struct {
		Diagnostics []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		} `json:"diagnostics"`
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if report.Count != 0 || len(report.Diagnostics) != 0 {
		t.Fatalf("expected clean report, got %s", out)
	}
}

// TestDirtyModuleExitsOne builds a scratch module with a seededrand
// violation and checks the CLI reports it and exits 1.
func TestDirtyModuleExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list; skipped in -short")
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratchmod\n\ngo 1.21\n")
	writeFile(t, filepath.Join(dir, "dice.go"),
		"package scratchmod\n\nimport \"math/rand\"\n\nfunc Roll() int { return rand.Intn(6) }\n")

	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()

	var code int
	out := captureStdout(t, func() { code = run([]string{"./..."}) })
	if code != 1 {
		t.Fatalf("run on dirty module = %d, want 1\n%s", code, out)
	}
	if !containsLine(out, "dice.go:3") {
		t.Errorf("expected a dice.go:3 seededrand diagnostic, got:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
