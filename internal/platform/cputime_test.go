package platform

import (
	"testing"
	"time"
)

// cpuMeter sums the process's user and system CPU time (processCPU)
// across the spans a benchmark times. On a shared host the wall time
// waits on the disk and on the neighbours, the CPU time much less.
type cpuMeter struct {
	total  time.Duration
	failed bool
}

// time runs f and adds the CPU time it took.
func (m *cpuMeter) time(f func()) {
	start, ok := processCPU()
	f()
	end, ok2 := processCPU()
	m.total += end - start
	m.failed = m.failed || !ok || !ok2
}

// report reports the CPU time per iteration as cpu-ns/op, unless it
// could not be read.
func (m *cpuMeter) report(b *testing.B) {
	if !m.failed {
		b.ReportMetric(float64(m.total.Nanoseconds())/float64(b.N), "cpu-ns/op")
	}
}
