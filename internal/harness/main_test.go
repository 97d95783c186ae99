package harness

import (
	"flag"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if its tests leave goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")
