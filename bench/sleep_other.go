//go:build !linux

package main

import "time"

// sleeper is time.Sleep where there is no timerfd; see sleep_linux.go
// for what that costs in accuracy.
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

func (*sleeper) sleep(d time.Duration) { time.Sleep(d) }

func (*sleeper) close() error { return nil }
