package sched

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
)

// The look-ahead cutoff's contract, checked against the run itself: what
// Config.Cutoff is asked with are floors, and a cycles-only predicate
// abandons the runs the parent's rule did.

// oracleCutoffRun is the run loop as it was before the floors: abandon
// once the partial makespan exceeds k. It returns the steps taken.
func oracleCutoffRun(e *engine, k int64) (steps int, err error) {
	for e.nDone < len(e.gr.Ops) {
		if err := e.step(); err != nil {
			return steps, err
		}
		steps++
		if e.tl.Makespan() > k {
			return steps, ErrCutoff
		}
	}
	return steps, nil
}

// floorStats is what one checkFloors run exercised.
type floorStats struct {
	steps, abandoned, earlier int
	stalled                   bool
}

// checkFloors schedules gr under cfg step by step with no predicate and
// requires of the floors after every step: neither ever falls, the
// cycles floor stays at or below the makespan the run reaches before
// flush, the bytes floor at or below — and at the end equal to — the
// traffic it ends with. Then, for k from 50 % to 110 % of the final
// latency, Cutoff = cycles > k must end in ErrCutoff exactly when the
// oracle's partial-makespan rule does, and never at a later step.
func checkFloors(t testing.TB, c walkCase) (st floorStats) {
	t.Helper()
	name := c.name
	e := newTestEngine(t, c.gr, c.cfg)
	var cycles, bytes []int64
	for e.nDone < len(c.gr.Ops) {
		if err := e.step(); err != nil {
			if !errors.Is(err, errNoProgress) {
				t.Fatalf("%s step %d: %v", name, len(cycles), err)
			}
			st.stalled = true
			break
		}
		cf, bf := e.floors()
		if n := len(cycles); n > 0 && (cf < cycles[n-1] || bf < bytes[n-1]) {
			t.Fatalf("%s step %d: floors fell from %d cycles / %d bytes to %d / %d", name, n, cycles[n-1], bytes[n-1], cf, bf)
		}
		if cf < e.tl.Makespan() {
			t.Fatalf("%s step %d: cycles floor %d below the partial makespan %d", name, len(cycles), cf, e.tl.Makespan())
		}
		cycles, bytes = append(cycles, cf), append(bytes, bf)
	}
	st.steps = len(cycles)
	if st.stalled {
		return st // no completion to hold the floors against; they did not fall
	}
	beforeFlush := e.tl.Makespan()
	res := e.finish()
	if e.owed != (dfg.Floor{}) {
		t.Fatalf("%s: a flushed run still owes %+v", name, e.owed)
	}
	moved, latency := res.TrafficBytes(), res.LatencyCycles
	if last := bytes[len(bytes)-1]; last != moved {
		t.Fatalf("%s: bytes floor ends at %d, the schedule moved %d", name, last, moved)
	}
	for i := range cycles {
		if cycles[i] > beforeFlush || bytes[i] > moved {
			t.Fatalf("%s step %d: floors %d cycles / %d bytes, the run reached %d before flush and %d bytes",
				name, i, cycles[i], bytes[i], beforeFlush, moved)
		}
	}
	for _, pct := range []int64{50, 75, 90, 97, 110} {
		k := latency * pct / 100
		wantSteps, wantErr := oracleCutoffRun(newTestEngine(t, c.gr, c.cfg), k)
		asked := 0
		cfg := c.cfg
		cfg.Cutoff = func(cyclesFloor, _ int64) bool { asked++; return cyclesFloor > k }
		_, gotErr := newTestEngine(t, c.gr, cfg).run()
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("%s k=%d (%d%%): look-ahead cutoff ends with %v, the partial-makespan rule with %v", name, k, pct, gotErr, wantErr)
		}
		if asked > wantSteps {
			t.Fatalf("%s k=%d (%d%%): look-ahead cutoff took %d steps, the partial-makespan rule %d", name, k, pct, asked, wantSteps)
		}
		if errors.Is(gotErr, ErrCutoff) {
			st.abandoned++
			if asked < wantSteps {
				st.earlier++
			}
		}
		if pct != 90 {
			continue
		}
		// The benchmark's shorthand is the same predicate.
		cfg.Cutoff, cfg.CutoffCycles = nil, k
		if _, err := newTestEngine(t, c.gr, cfg).run(); (err == nil) != (gotErr == nil) {
			t.Fatalf("%s k=%d: CutoffCycles ends with %v, Cutoff with %v", name, k, err, gotErr)
		}
	}
	return st
}

// drawFloorCase is drawWalkCase with, for every other value of one more
// draw, a random survivable fault plan scaled to the nominal schedule.
func drawFloorCase(next func(n int) int) (walkCase, bool) {
	c, ok := drawWalkCase(next)
	if !ok || next(2) == 0 {
		return c, ok
	}
	nominal, err := Schedule(c.gr, c.cfg)
	if err != nil {
		return c, true // stalls healthy: checked as far as it gets
	}
	c.cfg.FaultPlan = fault.Random(int64(next(1<<16)), c.cfg.Arch.Cores, nominal.LatencyCycles)
	c.name += "/" + c.cfg.FaultPlan.String()
	return c, true
}

// TestFloors: over the random cases of TestSetWalkMatchesOracle — single
// layers and fused pairs, out of order, hinted and static, 2 to 8 cores,
// every priority and spill policy — half of them on a machine degraded
// by a random fault plan, the floors hold (checkFloors) and the
// look-ahead cutoff abandons the partial-makespan rule's runs, most of
// them sooner.
func TestFloors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	target := 120
	if testing.Short() {
		target = 40
	}
	var cases, steps, abandoned, earlier, stalled, fused, static, faulted int
	for cases < target {
		c, ok := drawFloorCase(rng.Intn)
		if !ok {
			continue
		}
		cases++
		st := checkFloors(t, c)
		steps, abandoned, earlier = steps+st.steps, abandoned+st.abandoned, earlier+st.earlier
		for _, tally := range []struct {
			is bool
			n  *int
		}{{st.stalled, &stalled}, {c.gr.Fused(), &fused}, {c.cfg.Order != nil, &static}, {!c.cfg.FaultPlan.Empty(), &faulted}} {
			if tally.is {
				*tally.n++
			}
		}
	}
	t.Logf("%d cases (%d fused, %d static, %d faulted, %d stalled), %d steps, %d runs abandoned (%d sooner than by partial makespan)",
		cases, fused, static, faulted, stalled, steps, abandoned, earlier)
	if fused == 0 || static == 0 || faulted < cases/4 || stalled > cases/2 || abandoned == 0 || earlier < abandoned/2 {
		t.Error("the draw missed one of: fused graphs, static orders, fault plans, complete runs, abandoned runs, runs abandoned sooner")
	}
}

// FuzzFloors draws the case from the fuzz input. Run with
// `go test -fuzz='^FuzzFloors$'`; the seed corpus runs in normal test mode.
func FuzzFloors(f *testing.F) {
	f.Add([]byte{1, 20, 0, 0, 0, 0, 1, 1, 3, 3, 0, 6, 6, 16, 16, 2, 2, 8, 8, 1, 2, 1, 9})
	f.Add([]byte{2, 3, 0, 1, 2, 1, 1, 2, 1, 0, 11, 4, 30, 20, 1, 3, 5, 9, 1, 0, 8, 2, 1, 4, 4, 0, 1, 200})
	f.Add([]byte{0, 50, 1, 1, 3, 1, 0, 1, 0, 2, 1, 8, 8, 24, 8, 3, 3, 12, 4, 0, 0, 16, 1, 2, 2, 8, 8, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := drawFloorCase(fuzzDraws(data)); ok {
			checkFloors(t, c)
		}
	})
}
