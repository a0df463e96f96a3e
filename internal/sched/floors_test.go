package sched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
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
	res, _ := e.finish() // no Keep: never refused
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
	// Pressured: a hinted run whose owed reloads reach a third of its
	// traffic, and a fused one (DMA derated) that owes fused consumer
	// inputs — the debt a gather may settle, cycles only.
	f.Add([]byte{118, 120, 159, 124, 134, 4, 74, 31, 58, 171, 177, 85, 40, 70, 38, 229, 239, 91, 169, 164, 55, 169, 191, 227, 130, 131, 102, 216, 137})
	f.Add([]byte{31, 12, 244, 93, 64, 147, 57, 59, 184, 94, 62, 86, 120, 208, 224, 170, 159, 80, 191, 225, 93, 59, 181, 178, 63, 131, 175, 233, 242})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := drawFloorCase(fuzzDraws(data)); ok {
			checkFloors(t, c)
		}
	})
}

// parentFloors are the floors as they were before they counted reload
// debt: of loads, only the mandatory ones not yet made.
func parentFloors(e *engine) (cycles, bytes int64) {
	var loadBytes, loadCycles int64
	for n := 0; n < e.gr.NumTiles(); n++ {
		if id := e.gr.Tile(n); !e.loaded[n] && (id.Kind == tile.Wt || id.Kind == tile.In && id.L == 0) {
			loadBytes += e.gr.Size(id)
			loadCycles += e.cfg.Model.TransferCycles(e.gr.Size(id))
		}
	}
	busy := e.owed.OpCycles
	for i := 0; i < e.tl.Cores(); i++ {
		busy += e.tl.NPUFree(i)
	}
	n := int64(e.tl.Cores())
	return max(e.tl.Makespan(), (busy+n-1)/n, e.tl.DMAFree()+loadCycles), e.tot.TrafficBytes() + loadBytes + e.owed.WritebackBytes
}

// TestFloorsCountReloadDebt forces a thrash — an input-stationary static
// order cycling sixteen weight tiles and the partial sums of four
// chains through a scratchpad that holds a handful — and requires what
// the debt term is for: the floors never below the parent's, both
// strictly above it mid-run (a tile evicted with uses left is not free
// to bring back), every floor still at or below what the run reaches
// (checkFloors), and nothing owed once the run has finished.
func TestFloorsCountReloadDebt(t *testing.T) {
	a := arch.New("thrash", 2, arch.KiB(3), 2) // a slow DMA channel: its term is the cycles floor
	m := model.New(a)
	g, err := tile.NewGrid(layer.NewConv("t", 8, 8, 32, 32, 3), tile.Factors{OH: 4, OW: 4, OC: 8, IC: 8})
	if err != nil {
		t.Fatal(err)
	}
	gr := dfg.Build(g, m)
	cfg := Config{Arch: a, Model: m, Order: loop.Order(gr, loop.Canonical()[1])}
	if st := checkFloors(t, walkCase{name: "thrash", gr: gr, cfg: cfg}); st.stalled {
		t.Fatal("the thrash case stalls")
	}
	e := newTestEngine(t, gr, cfg)
	var steps, bytesAbove, cyclesAbove int
	var peak int64
	for e.nDone < len(gr.Ops) {
		if err := e.step(); err != nil {
			t.Fatal(err)
		}
		steps++
		cf, bf := e.floors()
		pcf, pbf := parentFloors(e)
		if cf < pcf || bf < pbf {
			t.Fatalf("step %d: floors %d cycles / %d bytes below the parent's %d / %d", steps, cf, bf, pcf, pbf)
		}
		if bf > pbf {
			bytesAbove++
			peak = max(peak, bf-pbf)
		}
		if cf > pcf {
			cyclesAbove++
		}
	}
	res, _ := e.finish() // no Keep: never refused
	t.Logf("%d steps: bytes floor above the parent's after %d (by up to %d of %d bytes moved), cycles floor after %d",
		steps, bytesAbove, peak, res.TrafficBytes(), cyclesAbove)
	if bytesAbove == 0 || cyclesAbove == 0 {
		t.Error("no step owed a reload: the case does not thrash")
	}
	if slices.Contains(e.reload, true) || e.owed != (dfg.Floor{}) {
		t.Errorf("a finished run still owes %+v", e.owed)
	}
}
