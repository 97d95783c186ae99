package leakcheck

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

// sleeper stands for a leaked goroutine: it sleeps until stop is set.
func sleeper(started chan<- struct{}, stop *atomic.Bool) {
	close(started)
	for !stop.Load() {
		time.Sleep(time.Millisecond)
	}
}

// TestGroupNamesLeakedGoroutine: the report of a goroutine parked in
// time.Sleep names the function of this module it sleeps in, not
// time.Sleep, and the function that started it. Stopping the goroutine
// then lets Settle, and this package's own gate, pass.
func TestGroupNamesLeakedGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	started, stop := make(chan struct{}), new(atomic.Bool)
	go sleeper(started, stop)
	<-started
	report := group()
	stop.Store(true)
	want := "1 × repro/internal/leakcheck.sleeper, created by repro/internal/leakcheck.TestGroupNamesLeakedGoroutine\n"
	if !strings.Contains(report, want) {
		t.Errorf("report does not name the sleeper and its go statement:\n%s\nwant a line ending %q", report, want)
	}
	if strings.Contains(report, "time.Sleep") {
		t.Errorf("report names time.Sleep, not the module frame above it:\n%s", report)
	}
	Settle(t, base)
}
