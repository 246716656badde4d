//go:build race

package state

// raceEnabled lets the allocation-accounting tests skip themselves under
// the race detector, whose instrumentation allocates where a plain build
// does not.
const raceEnabled = true
