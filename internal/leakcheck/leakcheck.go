// Package leakcheck fails tests that leave goroutines running. Only _test.go
// files import it.
package leakcheck

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// Main runs the tests, then fails the binary as Settle fails a test. It
// first starts os/signal's watcher, which runs until the process exits once
// anything asks for a signal (a fuzzing run does), so the baseline holds it.
func Main(m *testing.M) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	base, code := runtime.NumGoroutine(), m.Run()
	if leaked := settle(base); leaked != "" {
		fmt.Fprint(os.Stderr, "leakcheck: ", leaked)
		code = 1
	}
	os.Exit(code)
}

// Settle waits five seconds at most for the goroutine count to come back
// down to base, then fails t with the goroutines left over, grouped.
func Settle(t testing.TB, base int) {
	t.Helper()
	if leaked := settle(base); leaked != "" {
		t.Fatal(leaked)
	}
}

func settle(base int) string {
	for start := time.Now(); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			return fmt.Sprintf("%d goroutines, %d at the baseline:\n%s", runtime.NumGoroutine(), base, group())
		}
	}
	return ""
}

// group counts the caller's fellow goroutines by place: the first frame in
// this module, or the top frame of one that never enters it, and the
// function that started it.
func group() string {
	buf, count := make([]byte, 1<<20), map[string]int{}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")[1:] { // [0] is the caller
		at, created := "", ""
		for _, l := range strings.Split(g, "\n")[1:] {
			if strings.HasPrefix(l, "created by ") {
				created, _, _ = strings.Cut(l, " in goroutine ")
			} else if strings.HasSuffix(l, ")") && (at == "" || strings.HasPrefix(l, "repro/") && !strings.HasPrefix(at, "repro/")) {
				at = l[:strings.LastIndex(l, "(")] // a frame's function, without its arguments
			}
		}
		count[at+", "+created]++
	}
	lines := make([]string, 0, len(count))
	for place, n := range count {
		lines = append(lines, fmt.Sprintf("%5d × %s\n", n, place))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(lines))) // the most goroutines first
	return strings.Join(lines, "")
}
