//go:build lockrank

package lockrank

import (
	"strings"
	"sync"
	"testing"
)

// reports runs fn with report replaced by a recorder and returns what it
// reported; the goroutine must hold no ranked lock afterwards.
func reports(t *testing.T, fn func()) []string {
	t.Helper()
	var got []string
	saved := report
	report = func(msg string) { got = append(got, msg) }
	defer func() { report = saved }()
	fn()
	mu.Lock()
	defer mu.Unlock()
	if len(held) != 0 {
		t.Errorf("ranked locks still recorded after the test: %d", len(held))
	}
	return got
}

func TestInversionOnOnePathIsReported(t *testing.T) {
	var p PumpMu
	var b MailboxMu
	// Only mailbox-then-pump ever runs; pump-then-mailbox never does.
	got := reports(t, func() {
		b.Lock()
		p.Lock()
		p.Unlock()
		b.Unlock()
	})
	if len(got) != 1 {
		t.Fatalf("reports = %q, want one", got)
	}
	first := strings.SplitN(got[0], "\n", 2)[0]
	if want := "lockrank: async.Pump.mu (rank 6) acquired while holding async.mailbox.mu (rank 7)"; first != want {
		t.Errorf("report = %q, want %q", first, want)
	}
	// Both acquisitions' stacks, the held lock's first, each through this test.
	_, stacks, _ := strings.Cut(got[0], "async.mailbox.mu acquired at:\n")
	heldAt, takenAt, ok := strings.Cut(stacks, "async.Pump.mu acquired at:\n")
	if !ok || !strings.Contains(heldAt, "TestInversionOnOnePathIsReported") || !strings.Contains(takenAt, "TestInversionOnOnePathIsReported") {
		t.Errorf("report lacks a stack through the test for each acquisition:\n%s", got[0])
	}
}

func TestDeclaredOrderIsNotReported(t *testing.T) {
	var db DBMu
	var plan DBPlanMu
	var p PumpMu
	var b MailboxMu
	var ct CallTraceMu
	var c CacheMu
	got := reports(t, func() {
		db.RLock()
		plan.Lock()
		plan.Unlock()
		p.Lock()
		b.Lock()
		ct.Lock()
		c.Lock()
		c.Unlock()
		ct.Unlock()
		b.Unlock()
		p.Unlock()
		db.RUnlock()
		db.Lock()
		db.Unlock()
	})
	if len(got) != 0 {
		t.Errorf("reports = %q, want none", got)
	}
}

func TestRLockUnderAHigherRankIsReported(t *testing.T) {
	var db DBMu
	var p PumpMu
	got := reports(t, func() {
		p.Lock()
		db.RLock()
		db.RUnlock()
		p.Unlock()
	})
	if len(got) != 1 || !strings.HasPrefix(got[0], "lockrank: core.DB.mu (rank 1) acquired while holding async.Pump.mu (rank 6)") {
		t.Errorf("reports = %q, want one naming core.DB.mu under async.Pump.mu", got)
	}
}

func TestReleaseByAnotherGoroutineLeavesNoHolder(t *testing.T) {
	var p PumpMu
	var db DBMu
	got := reports(t, func() {
		p.Lock()
		done := make(chan struct{})
		go func() { p.Unlock(); close(done) }()
		<-done
		// A phantom Pump.mu left on this goroutine would make this an inversion.
		db.Lock()
		db.Unlock()
	})
	if len(got) != 0 {
		t.Errorf("reports = %q, want none", got)
	}
}

func TestUnrankedMutexIsIgnored(t *testing.T) {
	var plain sync.Mutex
	var ct CallTraceMu
	var p PumpMu
	got := reports(t, func() {
		ct.Lock()
		plain.Lock()
		plain.Unlock()
		ct.Unlock()
		plain.Lock()
		p.Lock()
		p.Unlock()
		plain.Unlock()
	})
	if len(got) != 0 {
		t.Errorf("reports = %q, want none", got)
	}
}
