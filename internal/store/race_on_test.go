//go:build race

package store

// raceEnabled lets the allocation-counting tests keep their assertions
// to builds without the race detector, whose bookkeeping moves an
// allocation count by one from run to run.
const raceEnabled = true
