//go:build !race

package sched

import (
	"runtime/debug"
	"testing"
)

// TestScheduleAllocs holds a warm Schedule of BenchmarkScheduleTiny's
// graph to the allocations the run hands its caller — the Result, its
// set records and its timeline's records — 14 out of order and 16 in a
// static order, so that a per-graph or per-step table which leaks into
// the per-run path fails here. The collector is off while it measures:
// a collection empties the engine pool, and the next run would pay a
// cold engine's allocations.
func TestScheduleAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	gr := smallGraph(t, arch4)
	for _, c := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"ooo", Config{Arch: arch4, MaxReadyWindow: 12, MaxCandidateSets: 32}, 14},
		{"static", Config{Arch: arch4, Order: seq(len(gr.Ops))}, 16},
	} {
		n := testing.AllocsPerRun(100, func() {
			if _, err := Schedule(gr, c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.ceiling {
			t.Errorf("%s: a warm Schedule makes %v allocations, ceiling %v", c.name, n, c.ceiling)
		}
	}
}
