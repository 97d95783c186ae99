package core

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if its tests leave goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
