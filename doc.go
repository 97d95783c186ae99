// Package repro is a from-scratch Go reproduction of "WSQ/DSQ: A Practical
// Approach for Combined Querying of Databases and the Web" (Goldman &
// Widom, SIGMOD 2000).
//
// The public entry points live in internal/core (the WSQ database engine),
// internal/dsq (database-supported web queries), and internal/harness (the
// experiment environment). See README.md for a tour, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper's evaluation, which
// the simulated-time tests of internal/harness regenerate exactly
// (GOEXPERIMENT=synctest go test ./internal/harness).
package repro
