//go:build !lockrank

// Package lockrank declares the order in which the engine's mutexes are
// taken (lockrank_on.go) and, built with the lockrank tag, checks it. A
// ranked field is typed by its class, here an alias of a sync mutex.
package lockrank

import "sync"

type (
	DBMu          = sync.RWMutex
	DBPlanMu      = sync.Mutex
	CoordinatorMu = sync.Mutex
	ServerMu      = sync.Mutex
	ServerLogMu   = sync.Mutex
	PumpMu        = sync.Mutex
	MailboxMu     = sync.Mutex
	CallTraceMu   = sync.Mutex
	CacheMu       = sync.Mutex
)
