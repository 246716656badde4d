//go:build race

package platform

// raceEnabled lets the heap- and allocation-accounting tests skip
// themselves under the race detector, where they run several times
// slower and measure the detector's bookkeeping.
const raceEnabled = true
