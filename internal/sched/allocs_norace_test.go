//go:build !race

package sched

import (
	"runtime/debug"
	"testing"
)

// TestScheduleAllocs holds a warm Schedule of BenchmarkScheduleTiny's
// graph to the allocations the run hands its caller — the Result, its
// set list, one array holding every set's ops, and its op and memory
// records — 5 out of order and 5 in a static order, and a run its
// cutoff abandons at the first step, one that finishes and its keep
// refuses, or one ScheduleInto writes over a Result that can hold it, to
// none, so that a per-graph or per-step table, or a record buffer, which
// leaks into the per-run path fails here. The collector is off while it
// measures: a collection empties the engine pool, and the next run would
// pay a cold engine's allocations.
func TestScheduleAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	gr := smallGraph(t, arch4)
	always := func(int64, int64) bool { return true }
	never := func(int64, int64) bool { return false }
	for _, c := range []struct {
		name    string
		cfg     Config
		into    bool // written over a schedule of the same run
		ceiling float64
	}{
		{"ooo", Config{Arch: arch4, MaxReadyWindow: 12, MaxCandidateSets: 32}, false, 5},
		{"static", Config{Arch: arch4, Order: seq(len(gr.Ops))}, false, 5},
		{"cut at the first step", Config{Arch: arch4, MaxReadyWindow: 12, MaxCandidateSets: 32, Cutoff: always}, false, 0},
		{"finished, refused by Keep", Config{Arch: arch4, MaxReadyWindow: 12, MaxCandidateSets: 32, Keep: never}, false, 0},
		{"ooo, written over", Config{Arch: arch4, MaxReadyWindow: 12, MaxCandidateSets: 32}, true, 0},
	} {
		var dst *Result
		if c.into {
			dst, _ = Schedule(gr, c.cfg)
		}
		n := testing.AllocsPerRun(100, func() {
			if _, err := ScheduleInto(dst, gr, c.cfg); err != nil && (c.cfg.Cutoff == nil || err != ErrCutoff) && (c.cfg.Keep == nil || err != ErrNotKept) {
				t.Fatal(err)
			}
		})
		if n > c.ceiling {
			t.Errorf("%s: a warm Schedule makes %v allocations, ceiling %v", c.name, n, c.ceiling)
		}
	}
}
