// Package server is a lockorder fixture: the structural lock
// acquisition graph must be acyclic.
package server

import "sync"

// A and B lock each other's mutexes in opposite orders: the classic
// two-party deadlock, visible only across function boundaries.
type A struct {
	mu sync.Mutex
	b  *B
}

type B struct {
	mu sync.Mutex
	a  *A
}

func (a *A) DoA() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.b.mu.Lock() // want "lock-order cycle"
	a.b.mu.Unlock()
}

func (b *B) DoB() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.a.mu.Lock()
	b.a.mu.Unlock()
}

// C and D deadlock through helper calls: neither Work touches the other
// type's mutex directly, but the callee summaries carry the
// acquisition across the boundary.
type C struct {
	mu sync.Mutex
	d  *D
}

type D struct {
	mu sync.Mutex
	c  *C
}

func (c *C) Work() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.d.poke() // want "lock-order cycle"
}

func (d *D) poke() {
	d.mu.Lock()
	d.mu.Unlock()
}

func (d *D) Work() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.c.prod()
}

func (c *C) prod() {
	c.mu.Lock()
	c.mu.Unlock()
}

// E and F nest consistently (E.mu always outside F.mu): one direction
// only, no cycle, no report.
type E struct {
	mu sync.Mutex
	f  *F
}

type F struct {
	mu sync.Mutex
}

func (e *E) One() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.f.mu.Lock()
	e.f.mu.Unlock()
}

func (e *E) Two() {
	e.mu.Lock()
	e.f.mu.Lock()
	e.f.mu.Unlock()
	e.mu.Unlock()
}

// seq releases its first lock before taking the second: no nesting, no
// edge, even though both mutexes appear in one body.
func (e *E) seq(f *F) {
	e.mu.Lock()
	e.mu.Unlock()
	f.mu.Lock()
	f.mu.Unlock()
}

// G is the server's pair of locks crossed (DESIGN.md §7, mutants
// lockorder1 and lockorder2): logging takes mu under logMu, the status
// handler logs under mu. Both orders sit in one type, one of them behind a
// call, and no test interleaves them — -race passes too.
type G struct {
	mu    sync.Mutex
	logMu sync.Mutex
	n     int
}

func (g *G) log() {
	g.logMu.Lock()
	defer g.logMu.Unlock()
	g.mu.Lock() // want "lock-order cycle.*G.logMu -> .*G.mu.*G.mu -> .*G.logMu"
	g.n++
	g.mu.Unlock()
}

func (g *G) status() int {
	g.mu.Lock()
	n := g.n
	g.log()
	g.mu.Unlock()
	return n
}
