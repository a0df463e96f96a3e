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

// oracleCutoffRun is the run loop under the partial-makespan rule:
// abandon once the partial makespan exceeds k. It returns the steps taken.
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
	res, _ := e.finish(nil) // no Keep: never refused
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
		_, gotErr := newTestEngine(t, c.gr, cfg).run(nil)
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
		if _, err := newTestEngine(t, c.gr, cfg).run(nil); (err == nil) != (gotErr == nil) {
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
// layers and fused pairs, out of order, hinted and static, 1 to 8 cores,
// every priority and spill policy — half of them on a machine degraded
// by a random fault plan, the floors hold (checkFloors) and the
// look-ahead cutoff abandons the partial-makespan rule's runs, most of
// them sooner. The cycles floor is the largest of three: the partial
// makespan, which only grows; the cores' busy time plus the cycles still
// to issue spread evenly, since ops never overlap on a core and the
// latest core ends no earlier than the average; and the DMA channel's
// busy time plus the loads still owed, since every transfer shares the
// one channel. Their state is updated where a set is placed, an op
// retires and a transfer is accounted, all inside the apply that
// Repair's re-execution goes through too.
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
		}{{st.stalled, &stalled}, {c.gr.LastLayer() > 0, &fused}, {c.cfg.Order != nil, &static}, {!c.cfg.FaultPlan.Empty(), &faulted}} {
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

// floorSeeds are FuzzFloors' and FuzzDrawnSchedules' seed corpus:
// walkSeeds' first three cases, two of them under a fault plan, then
// two pressured ones. TestPinnedSeedsDrawTheirCases names each.
var floorSeeds = [][]byte{
	{3, 20, 0, 0, 0, 0, 1, 1, 3, 3, 0, 8, 8, 16, 16, 0, 3, 3, 11, 11, 1, 2, 1, 9},
	{4, 3, 0, 1, 2, 1, 1, 2, 1, 0, 1, 6, 8, 20, 1, 0, 4, 1, 8, 4, 0, 8, 0, 2, 5, 7, 3, 1, 0},
	{1, 50, 1, 1, 3, 1, 0, 1, 0, 2, 1, 10, 10, 24, 8, 0, 4, 4, 15, 7, 0, 0, 0, 2, 3, 5, 11, 2, 1, 0},
	// Pressured: a hinted run whose owed reloads reach a third of its
	// traffic, and a fused one (DMA derated) that owes fused consumer
	// inputs — the debt a gather may settle, cycles only.
	{3, 0, 1, 0, 2, 1, 2, 7, 2, 3, 1, 3, 6, 30, 38, 0, 5, 5, 14, 12, 2, 1, 1, 1, 227},
	{3, 12, 0, 1, 0, 0, 1, 3, 0, 2, 0, 4, 2, 8, 24, 0, 1, 5, 3, 15, 0, 21, 1, 2, 4, 18, 6, 1, 1, 242},
}

// FuzzFloors draws the case from the fuzz input. Run with
// `go test -fuzz='^FuzzFloors$'`; the seed corpus runs in normal test mode.
func FuzzFloors(f *testing.F) {
	for _, seed := range floorSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := drawFloorCase(fuzzDraws(data)); ok {
			checkFloors(t, c)
		}
	})
}

// parentFloors are the floors without reload debt: of loads, only the
// mandatory ones not yet made.
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
	res, _ := e.finish(nil) // no Keep: never refused
	t.Logf("%d steps: bytes floor above the parent's after %d (by up to %d of %d bytes moved), cycles floor after %d",
		steps, bytesAbove, peak, res.TrafficBytes(), cyclesAbove)
	if bytesAbove == 0 || cyclesAbove == 0 {
		t.Error("no step owed a reload: the case does not thrash")
	}
	if slices.Contains(e.reload, true) || e.owed != (dfg.Floor{}) {
		t.Errorf("a finished run still owes %+v", e.owed)
	}
}
