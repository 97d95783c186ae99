//go:build lockrank

package lockrank

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// The order, after the Go runtime's lockrank: a goroutine may take a lock,
// or read lock, only while every lock it holds ranks below it. A class's
// rank is its array length, and its field names the mutex, with dots
// written as underscores. Taking a lock out of order prints both
// acquisition stacks and exits the process: net/http recovers a panic.
type (
	DBMu          = mutex[[1]struct{ core_DB_mu struct{} }]
	DBPlanMu      = mutex[[2]struct{ core_DB_planMu struct{} }]
	CoordinatorMu = mutex[[3]struct{ shard_Coordinator_mu struct{} }]
	ServerMu      = mutex[[4]struct{ server_Server_mu struct{} }]
	ServerLogMu   = mutex[[5]struct{ server_Server_logMu struct{} }]
	PumpMu        = mutex[[6]struct{ async_Pump_mu struct{} }]
	MailboxMu     = mutex[[7]struct{ async_mailbox_mu struct{} }]
	CallTraceMu   = mutex[[8]struct{ async_CallTrace_mu struct{} }]
	CacheMu       = mutex[[9]struct{ cache_Cache_mu struct{} }]
)

type mutex[C any] struct{ m sync.RWMutex }

func (l *mutex[C]) Lock()         { h := check(l, reflect.TypeFor[C]()); l.m.Lock(); hold(h) }
func (l *mutex[C]) RLock()        { h := check(l, reflect.TypeFor[C]()); l.m.RLock(); hold(h) }
func (l *mutex[C]) Unlock()       { release(l); l.m.Unlock() }
func (l *mutex[C]) RUnlock()      { release(l); l.m.RUnlock() }
func (l *mutex[C]) TryLock() bool { return l.m.TryLock() } // it cannot block: neither checked nor kept

// holding is a lock goroutine g holds and where it took it, kept by value.
type holding struct {
	g     uint64
	lock  any
	class reflect.Type
	n     int
	pcs   [16]uintptr
}

var (
	mu     sync.Mutex
	held   []holding // every ranked lock held now; it keeps its capacity
	gbuf   [32]byte  // goid's, under mu
	report = func(msg string) { fmt.Fprint(os.Stderr, msg); os.Exit(2) }
)

// check reports (by report, which the self-test replaces) taking class while
// holding a rank at or above its own, before the lock can block.
func check(lock any, class reflect.Type) holding {
	h := holding{lock: lock, class: class}
	h.n = runtime.Callers(3, h.pcs[:])
	mu.Lock()
	h.g = goid()
	worst, found := h, false // the highest rank g holds at or above class's
	for _, x := range held {
		if x.g == h.g && x.class.Len() >= worst.class.Len() {
			worst, found = x, true
		}
	}
	mu.Unlock()
	if found {
		report(fmt.Sprintf("lockrank: %s (rank %d) acquired while holding %s (rank %d)\n%[3]s acquired at:\n%[5]s%[1]s acquired at:\n%[6]s",
			name(class), class.Len(), name(worst.class), worst.class.Len(), stack(worst), stack(h)))
	}
	return h
}

func hold(h holding) { mu.Lock(); held = append(held, h); mu.Unlock() }

// release forgets lock's record: the caller's, else its acquirer's.
func release(lock any) {
	mu.Lock()
	defer mu.Unlock()
	g, at := goid(), -1
	for i, x := range held {
		if x.lock == lock && (at < 0 || x.g == g) {
			at = i
		}
	}
	if at >= 0 {
		held = append(held[:at], held[at+1:]...)
	}
}

// goid parses the caller's stack header, "goroutine 18 [running]:".
func goid() uint64 {
	s := bytes.TrimPrefix(gbuf[:runtime.Stack(gbuf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(s[:bytes.IndexByte(s, ' ')]), 10, 64)
	return id
}

func name(c reflect.Type) string { return strings.ReplaceAll(c.Elem().Field(0).Name, "_", ".") }

func stack(h holding) (s string) {
	frames := runtime.CallersFrames(h.pcs[:h.n])
	for f, _ := frames.Next(); f.PC != 0; f, _ = frames.Next() {
		s += fmt.Sprintf("\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
	}
	return s
}
