package verify

import (
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestRepairPlacementRegression is a case repair once failed: a 56 KiB
// weight tile has to fit a 67 KiB scratchpad on one core. A scratchpad
// rebuilt at the fault cycle by best fit — dirty tiles only, in a new
// layout — leaves no room for it ("no feasible operation set");
// re-executing the committed sets keeps the nominal run's layout, in
// which the remainder fits, so the case must repair and verify. Over
// random cases, sched's TestDrawnSchedulesVerify holds repair to the
// verifier.
func TestRepairPlacementRegression(t *testing.T) {
	a := arch.New("r", 1, arch.KiB(67), 32)
	g, err := tile.NewGrid(layer.NewConv("r", 10, 10, 32, 48, 5), tile.Factors{OH: 5, OW: 8, OC: 44, IC: 26})
	if err != nil {
		t.Fatal(err)
	}
	gr := dfg.Build(g, model.New(a))
	cfg := sched.Config{Arch: a, Priority: sched.PriorityMinTransfer, MemPolicy: spm.PolicyFirstFit}
	nominal, err := sched.Schedule(gr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Flaky: []fault.Flaky{{Core: 0, From: 8218, To: 12328, Slowdown: 3.2728671580357003}}}
	repaired, err := sched.Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if err := ScheduleFaults(gr, repaired, a, plan); err != nil {
		t.Errorf("repair returned an invalid schedule: %v", err)
	}
}

// TestRepairedScheduleVerifies is the deterministic acceptance case:
// killing one of four cores at mid-makespan yields a schedule that
// passes the fault-aware verifier, is no faster than nominal, and is no
// slower than restarting on the survivors at the fault cycle.
func TestRepairedScheduleVerifies(t *testing.T) {
	a := arch.New("t", 4, arch.KiB(256), 32)
	l := layer.NewConv("c", 28, 28, 128, 128, 3)
	g, err := tile.NewGrid(l, tile.Factors{OH: 14, OW: 14, OC: 32, IC: 32})
	if err != nil {
		t.Fatal(err)
	}
	gr := dfg.Build(g, model.New(a))
	cfg := sched.Config{Arch: a}
	nominal, err := sched.Schedule(gr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(gr, nominal, a); err != nil {
		t.Fatalf("nominal schedule invalid: %v", err)
	}
	fc := nominal.LatencyCycles / 2
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 2, Cycle: fc}}}
	repaired, err := sched.Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ScheduleFaults(gr, repaired, a, plan); err != nil {
		t.Fatalf("repaired schedule fails verification: %v", err)
	}
	if repaired.LatencyCycles < nominal.LatencyCycles {
		t.Errorf("degraded makespan %d < nominal %d", repaired.LatencyCycles, nominal.LatencyCycles)
	}
	restart, err := sched.Schedule(gr, sched.Config{Arch: a, FaultPlan: &fault.Plan{
		CoreDown: []fault.CoreDown{{Core: 2, Cycle: 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if repaired.LatencyCycles > restart.LatencyCycles+fc {
		t.Errorf("repair (%d) worse than restart on survivors + fault cycle (%d + %d)",
			repaired.LatencyCycles, restart.LatencyCycles, fc)
	}
}

// TestVerifyCatchesFaultViolations plants violations in otherwise-valid
// schedules and checks the fault-aware verifier rejects each.
func TestVerifyCatchesFaultViolations(t *testing.T) {
	a := arch.New("t", 2, arch.KiB(256), 32)
	l := layer.NewConv("c", 8, 8, 32, 24, 3)
	g, err := tile.NewGrid(l, tile.Factors{OH: 4, OW: 4, OC: 12, IC: 16})
	if err != nil {
		t.Fatal(err)
	}
	gr := dfg.Build(g, model.New(a))
	r, err := sched.Schedule(gr, sched.Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}

	// An op running on a core that the plan kills before its start.
	var victim int
	for i, rec := range r.OpRecords {
		if rec.Start > 0 {
			victim = i
			break
		}
	}
	dead := &fault.Plan{CoreDown: []fault.CoreDown{
		{Core: r.OpRecords[victim].NPU, Cycle: r.OpRecords[victim].Start},
	}}
	if err := ScheduleFaults(gr, r, a, dead); err == nil {
		t.Error("verifier accepted an op on a dead core")
	}

	// A flaky window covering an op that was not stretched.
	rec := r.OpRecords[victim]
	flaky := &fault.Plan{Flaky: []fault.Flaky{
		{Core: rec.NPU, From: rec.Start, To: rec.Start + 1, Slowdown: 2},
	}}
	if err := ScheduleFaults(gr, r, a, flaky); err == nil {
		t.Error("verifier accepted an unstretched op in a flaky window")
	}

	// A derate window covering a transfer that ran at full bandwidth.
	m := r.MemRecords[0]
	derated := &fault.Plan{DMA: []fault.Derate{{From: m.Start, To: m.Start + 1, Factor: 2}}}
	if err := ScheduleFaults(gr, r, a, derated); err == nil {
		t.Error("verifier accepted an underrated DMA transfer in a derate window")
	}

	// A gather in a derate window is priced as the scheduler prices it,
	// its scaled GatherCycles, and one that takes less is rejected too.
	fgr, fa := buildFused(t, 256)
	fr, err := sched.Schedule(fgr, sched.Config{Arch: fa})
	if err != nil {
		t.Fatal(err)
	}
	gi := slices.IndexFunc(fr.MemRecords, func(m sim.MemRecord) bool { return m.Kind == sim.Gather })
	if gi < 0 {
		t.Fatal("the fused schedule gathers nothing")
	}
	gm := fr.MemRecords[gi]
	gatherDerated := &fault.Plan{DMA: []fault.Derate{{From: gm.Start, To: gm.Start + 1, Factor: 2}}}
	if err := ScheduleFaults(fgr, fr, fa, gatherDerated); err == nil {
		t.Errorf("verifier accepted a %d-cycle gather of %v in a 2x derate window", gm.End-gm.Start, gm.Tile)
	}

	// The nominal plan-free check still passes.
	if err := ScheduleFaults(gr, r, a, nil); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}
