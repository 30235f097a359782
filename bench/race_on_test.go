//go:build race

package main

// The race detector slows the engine tenfold, so the open-loop generator
// cannot keep its schedule and the lateness rule rightly invalidates the
// run; the smoke test skips itself.
const raceEnabled = true
