// Package exec is an errjoin fixture: Close methods must not discard
// child Close errors.
package exec

import "errors"

type Closer interface{ Close() error }

type Multi struct {
	a, b, c Closer
}

func (m *Multi) Close() error {
	m.a.Close()       // want "error is dropped"
	_ = m.b.Close()   // want "assigned to _"
	defer m.c.Close() // want "dropped by defer"
	return nil
}

// Good aggregates every child error.
type Good struct {
	a, b Closer
}

func (g *Good) Close() error {
	return errors.Join(g.a.Close(), g.b.Close())
}

// Single returns its only child's error directly.
type Single struct {
	a Closer
}

func (s *Single) Close() error {
	return s.a.Close()
}

// NoErr closes a child whose Close returns nothing: nothing to drop.
type quietCloser interface{ Close() }

type NoErr struct {
	w quietCloser
}

func (n *NoErr) Close() error {
	n.w.Close()
	return nil
}

// Collected accumulates manually before returning: also fine.
type Collected struct {
	a, b Closer
}

func (c *Collected) Close() error {
	err := c.a.Close()
	if e := c.b.Close(); e != nil {
		err = errors.Join(err, e)
	}
	return err
}

// The dependent join's Close with its errors.Join undone (DESIGN.md §7,
// mutants errjoin1 and errjoin2): the left subtree's teardown error goes
// nowhere. Every test passes — nothing there fails a Close.
type join struct {
	Left, Right Closer
}

func (j *join) Close() error {
	j.Left.Close() // want "j.Left.Close\\(\\) error is dropped"
	return j.Right.Close()
}

type semiJoin struct {
	Left, Right Closer
}

func (j *semiJoin) Close() error {
	_ = j.Right.Close() // want "j.Right.Close\\(\\) error is assigned to _"
	return j.Left.Close()
}
