package verify

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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

// repairCase draws the (layer, tiling, machine, config) of a seed and
// schedules it on the healthy machine. ok is false when the draw is no
// case: an invalid layer or tiling, too many ops to stay cheap, or a
// tiling too large for the scratchpad (a legal outcome).
func repairCase(seed int64) (gr *dfg.Graph, cfg sched.Config, nominal *sched.Result, ok bool) {
	rng := rand.New(rand.NewSource(seed))
	inH := rng.Intn(16) + 4
	inC := []int{8, 16, 32, 64}[rng.Intn(4)]
	outC := []int{8, 16, 32, 48}[rng.Intn(4)]
	ker := []int{1, 3, 5}[rng.Intn(3)]
	l := layer.NewConv("r", inH, inH, inC, outC, ker)
	if err := l.Validate(); err != nil {
		return nil, cfg, nil, false
	}
	f := tile.Factors{
		OH: rng.Intn(l.OutH()) + 1,
		OW: rng.Intn(l.OutW()) + 1,
		OC: rng.Intn(outC) + 1,
		IC: rng.Intn(inC) + 1,
	}
	g, err := tile.NewGrid(l, f)
	if err != nil || g.NumOps() > 300 {
		return nil, cfg, nil, false
	}
	cores := rng.Intn(4) + 1
	a := arch.New("r", cores, arch.KiB(int64(rng.Intn(192)+64)), 32)
	gr = dfg.Build(g, model.New(a))
	cfg = sched.Config{
		Arch:      a,
		Priority:  sched.Priority(rng.Intn(3)),
		MemPolicy: spm.Policy(rng.Intn(3)),
	}
	nominal, err = sched.Schedule(gr, cfg)
	return gr, cfg, nominal, err == nil
}

// checkRepair is the shared property: for a random (layer, tiling,
// machine) and a random fault plan scaled to the nominal makespan, the
// repaired schedule and the from-scratch degraded schedule must both
// pass every fault-aware verifier check. It reports false on violation
// (details via t.Logf) and true otherwise; infeasible tilings are
// vacuously true.
func checkRepair(t *testing.T, seed, planSeed int64) bool {
	t.Helper()
	gr, cfg, nominal, ok := repairCase(seed)
	if !ok {
		return true
	}
	a, l, f, cores := cfg.Arch, gr.Grid.Layer, gr.Grid.F, cfg.Arch.Cores
	plan := fault.Random(planSeed, cores, nominal.LatencyCycles)
	if err := plan.Validate(cores); err != nil {
		t.Logf("seed %d/%d: Random produced invalid plan %q: %v", seed, planSeed, plan, err)
		return false
	}

	repaired, err := sched.Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Logf("seed %d/%d (%s, tiling %s, %d cores, plan %q): repair failed: %v",
			seed, planSeed, l, f, cores, plan, err)
		return false
	}
	if err := ScheduleFaults(gr, repaired, a, plan); err != nil {
		t.Logf("seed %d/%d (%s, tiling %s, %d cores, plan %q): repaired schedule invalid: %v",
			seed, planSeed, l, f, cores, plan, err)
		return false
	}

	scratchCfg := cfg
	scratchCfg.FaultPlan = plan
	scratch, err := sched.Schedule(gr, scratchCfg)
	if err != nil {
		t.Logf("seed %d/%d (plan %q): from-scratch degraded schedule failed: %v", seed, planSeed, plan, err)
		return false
	}
	if err := ScheduleFaults(gr, scratch, a, plan); err != nil {
		t.Logf("seed %d/%d (plan %q): from-scratch degraded schedule invalid: %v", seed, planSeed, plan, err)
		return false
	}
	return true
}

// TestFuzzRepair extends the scheduler fuzz to repaired schedules: a
// repaired schedule under any generated fault plan must pass all
// verifier checks. The hundred cases are the same on every run, so a
// tier-1 run never explores: random exploration is FuzzRepair's job
// (`make fuzz-smoke`).
func TestFuzzRepair(t *testing.T) {
	check := func(seed, planSeed int64) bool { return checkRepair(t, seed, planSeed) }
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Error(err)
	}
}

// TestRepairPlacementRegression is a seed pair Repair used to fail: a
// 56 KiB weight tile has to fit a 67 KiB scratchpad, and the scratchpad
// Repair rebuilt at the fault cycle by best-fit — dirty tiles only, in a
// new layout — left no room for it ("no feasible operation set").
// Re-executing the committed sets leaves the nominal run's layout, in
// which the remainder fits, so the pair must repair and verify.
func TestRepairPlacementRegression(t *testing.T) {
	const seed, planSeed = -8024249204223328135, -4653487590590366033
	gr, cfg, nominal, ok := repairCase(seed)
	if !ok {
		t.Fatal("the seed no longer draws a schedulable case")
	}
	plan := fault.Random(planSeed, cfg.Arch.Cores, nominal.LatencyCycles)
	repaired, err := sched.Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if err := ScheduleFaults(gr, repaired, cfg.Arch, plan); err != nil {
		t.Errorf("repair returned an invalid schedule: %v", err)
	}
}

// FuzzRepair is the native-fuzzing entry point for the same property,
// exercised by `make fuzz-smoke` and the CI fuzz job, which name it
// `-fuzz='^FuzzRepair$'`: FuzzVerify shares the package.
func FuzzRepair(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(7), int64(3))
	f.Add(int64(42), int64(0))
	f.Add(int64(-5), int64(99))
	f.Fuzz(func(t *testing.T, seed, planSeed int64) {
		if !checkRepair(t, seed, planSeed) {
			t.Errorf("repair property violated for seed %d / plan seed %d", seed, planSeed)
		}
	})
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
