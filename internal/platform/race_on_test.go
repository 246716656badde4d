//go:build race

package platform

// raceEnabled lets the heap-accounting test skip itself under the race
// detector, where it runs several times slower and measures the
// detector's bookkeeping.
const raceEnabled = true
