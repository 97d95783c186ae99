package async

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/leakcheck"
)

// TestMain fails the package if its tests leave goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// newPump builds a pump that is closed when the test ends, so that its
// parked execution goroutines go home.
func newPump(t testing.TB, maxTotal, maxPerDest int, cache exec.ResultCache) *Pump {
	p := NewPump(maxTotal, maxPerDest, cache)
	t.Cleanup(p.Close)
	return p
}
