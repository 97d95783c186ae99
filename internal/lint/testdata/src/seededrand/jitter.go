package websim

import (
	"math/rand" // want "direct math/rand import"
	"time"
)

// The pump's backoff jitter drawn from the global source (DESIGN.md §7,
// mutant seeded2): timing only, so every digest and count still matches
// and no test fails, but a chaos run no longer replays from its seed.
func jitter(d time.Duration) time.Duration {
	return d + time.Duration(rand.Int63n(int64(d)+1))
}
