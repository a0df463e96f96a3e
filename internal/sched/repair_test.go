package sched

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestRepairKillOneOfFourMidMakespan is the acceptance scenario: one of
// four cores dies halfway through the nominal makespan. The repaired
// schedule must keep the committed sets' records verbatim, put nothing
// on the dead core after its death, be no faster than the nominal
// schedule, and be no slower than throwing the prefix away and
// rescheduling everything on the three survivors starting at the fault
// cycle.
func TestRepairKillOneOfFourMidMakespan(t *testing.T) {
	a := testArch(4)
	gr := pressureGraph(t, a)
	cfg := Config{Arch: a}
	nominal, err := Schedule(gr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := nominal.LatencyCycles / 2
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: fc}}}

	repaired, err := Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, gr, repaired, a.Cores)

	for _, rec := range repaired.OpRecords {
		if rec.NPU == 1 && rec.Start >= fc {
			t.Fatalf("op %d starts at %d on core 1, dead since %d", rec.Op, rec.Start, fc)
		}
	}

	// The committed sets survive verbatim, in order: the records that
	// start before the fault cycle are a prefix of the repaired ones and
	// of the nominal's, they end on a set boundary, and no re-planned
	// record starts before the fault cycle.
	nOps := committedPrefix(t, repaired.OpRecords, nominal.OpRecords, func(r sim.OpRecord) int64 { return r.Start }, fc)
	committedPrefix(t, repaired.MemRecords, nominal.MemRecords, func(m sim.MemRecord) int64 { return m.Start }, fc)
	var nSets, setOps int
	for setOps < nOps {
		if !reflect.DeepEqual(repaired.Sets[nSets], nominal.Sets[nSets]) {
			t.Fatalf("committed set %d changed: %+v vs %+v", nSets, repaired.Sets[nSets], nominal.Sets[nSets])
		}
		setOps += len(nominal.Sets[nSets].Ops)
		nSets++
	}
	if setOps != nOps {
		t.Fatalf("the %d committed op records end inside set %d", nOps, nSets-1)
	}
	if nOps == 0 || nOps == len(gr.Ops) {
		t.Fatalf("fault cycle %d not mid-makespan: %d of %d ops committed", fc, nOps, len(gr.Ops))
	}

	if repaired.LatencyCycles < nominal.LatencyCycles {
		t.Errorf("degraded makespan %d < nominal %d", repaired.LatencyCycles, nominal.LatencyCycles)
	}

	// Repair never worse than restart: rescheduling from scratch on the
	// survivors (core 1 dead from cycle 0) shifted to the fault cycle.
	restart, err := Schedule(gr, Config{Arch: a, FaultPlan: &fault.Plan{
		CoreDown: []fault.CoreDown{{Core: 1, Cycle: 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if repaired.LatencyCycles > restart.LatencyCycles+fc {
		t.Errorf("repair (%d cycles) worse than restart-on-survivors + fault cycle (%d + %d)",
			repaired.LatencyCycles, restart.LatencyCycles, fc)
	}

	// Deterministic: repairing again reproduces the schedule exactly.
	again, err := Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.LatencyCycles != repaired.LatencyCycles || len(again.OpRecords) != len(repaired.OpRecords) {
		t.Fatal("repair is not deterministic")
	}
	for i := range again.OpRecords {
		if again.OpRecords[i] != repaired.OpRecords[i] {
			t.Fatalf("repair not deterministic at op record %d", i)
		}
	}
}

// committedPrefix checks that the records of got that start before fc
// come first and equal the first records of nominal, and returns how
// many there are.
func committedPrefix[R comparable](t *testing.T, got, nominal []R, start func(R) int64, fc int64) int {
	t.Helper()
	n := 0
	for n < len(got) && start(got[n]) < fc {
		n++
	}
	for i, r := range got[n:] {
		if start(r) < fc {
			t.Fatalf("re-planned record %d (%+v) starts before the fault cycle %d", n+i, r, fc)
		}
	}
	if n > len(nominal) || !slices.Equal(got[:n], nominal[:n]) {
		t.Fatalf("the %d committed records are not the nominal schedule's first ones", n)
	}
	return n
}

// TestRepairRejectsBrokenSets: Repair re-executes a schedule's sets, so
// sets that do not make the schedule are an error — never a panic, and
// never a schedule "repaired" from something else.
func TestRepairRejectsBrokenSets(t *testing.T) {
	a := testArch(4)
	gr := pressureGraph(t, a)
	cfg := Config{Arch: a}
	nominal, err := Schedule(gr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: nominal.LatencyCycles / 2}}}
	broken := map[string]func(r *Result){
		"no sets":              func(r *Result) { r.Sets = nil },
		"an empty set":         func(r *Result) { r.Sets[1].Ops = nil },
		"an op twice":          func(r *Result) { r.Sets[1] = r.Sets[0] },
		"an op in a set twice": func(r *Result) { r.Sets[0].Ops = []int{r.Sets[0].Ops[0], r.Sets[0].Ops[0]} },
		"an op off the graph":  func(r *Result) { r.Sets[0].Ops = []int{len(gr.Ops)} },
		"sets swapped":         func(r *Result) { r.Sets[2], r.Sets[3] = r.Sets[3], r.Sets[2] },
		"a record moved":       func(r *Result) { r.OpRecords[0].Start++ },
	}
	for name, breakIt := range broken {
		r := *nominal
		r.Sets = slices.Clone(nominal.Sets)
		r.OpRecords = slices.Clone(nominal.OpRecords)
		breakIt(&r)
		if got, err := Repair(gr, &r, plan, cfg); err == nil {
			t.Errorf("%s: repaired without an error (%d op records)", name, len(got.OpRecords))
		}
	}
	// A set that fit the scratchpad it was formed for may not fit another.
	small := cfg
	small.Arch.SPMBytes = arch.KiB(24)
	if _, err := Repair(gr, nominal, plan, small); !errors.Is(err, errNoProgress) {
		t.Errorf("a schedule for 256 KiB repaired on 24 KiB: %v, want errNoProgress", err)
	}
}

func TestRepairEmptyPlanReturnsNominal(t *testing.T) {
	a := testArch(2)
	gr := smallGraph(t, a)
	nominal, err := Schedule(gr, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*fault.Plan{nil, {}} {
		got, err := Repair(gr, nominal, plan, Config{Arch: a})
		if err != nil {
			t.Fatal(err)
		}
		if got != nominal {
			t.Error("empty plan should return the nominal schedule unchanged")
		}
	}
}

func TestRepairFaultBeyondMakespan(t *testing.T) {
	a := testArch(2)
	gr := smallGraph(t, a)
	nominal, err := Schedule(gr, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 0, Cycle: nominal.LatencyCycles + 1}}}
	repaired, err := Repair(gr, nominal, plan, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if repaired.LatencyCycles != nominal.LatencyCycles {
		t.Errorf("fault after completion changed makespan: %d vs %d", repaired.LatencyCycles, nominal.LatencyCycles)
	}
	if repaired != nominal {
		t.Error("a plan that disrupts nothing that ran should return the nominal schedule unchanged")
	}

	// A derate that starts with the last final write-back: every set
	// commits, and only the flush, which belongs to no set, is re-planned
	// (all of it, from the fault cycle on).
	last := nominal.MemRecords[len(nominal.MemRecords)-1]
	if last.Kind != sim.Writeback {
		t.Fatalf("the schedule ends with a %s, not a final write-back", last.Kind)
	}
	plan = &fault.Plan{DMA: []fault.Derate{{From: last.Start, Factor: 2}}}
	repaired, err = Repair(gr, nominal, plan, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, gr, repaired, a.Cores)
	if !slices.Equal(repaired.OpRecords, nominal.OpRecords) || !reflect.DeepEqual(repaired.Sets, nominal.Sets) {
		t.Error("a derate among the final write-backs changed the sets or their ops")
	}
	committedPrefix(t, repaired.MemRecords, nominal.MemRecords, func(m sim.MemRecord) int64 { return m.Start }, last.Start)
	if repaired.LatencyCycles <= nominal.LatencyCycles {
		t.Errorf("derated flush ends at %d, the nominal one at %d", repaired.LatencyCycles, nominal.LatencyCycles)
	}
}

func TestRepairFlakyAndDerate(t *testing.T) {
	a := testArch(2)
	gr := pressureGraph(t, a)
	cfg := Config{Arch: a}
	nominal, err := Schedule(gr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := nominal.LatencyCycles / 3
	plan := &fault.Plan{
		Flaky: []fault.Flaky{{Core: 0, From: fc, To: nominal.LatencyCycles, Slowdown: 4}},
		DMA:   []fault.Derate{{From: fc, Factor: 2}},
	}
	repaired, err := Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, gr, repaired, a.Cores)
	if repaired.LatencyCycles <= nominal.LatencyCycles {
		t.Errorf("slowing half the machine did not extend the makespan: %d vs %d",
			repaired.LatencyCycles, nominal.LatencyCycles)
	}
}

func TestScheduleRejectsInvalidFaultPlan(t *testing.T) {
	a := testArch(2)
	gr := smallGraph(t, a)
	allDead := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 0, Cycle: 0}, {Core: 1, Cycle: 0}}}
	if _, err := Schedule(gr, Config{Arch: a, FaultPlan: allDead}); err == nil {
		t.Error("Schedule accepted a plan killing every core")
	}
	nominal, err := Schedule(gr, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Repair(gr, nominal, allDead, Config{Arch: a}); err == nil {
		t.Error("Repair accepted a plan killing every core")
	}
	outOfRange := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 7, Cycle: 5}}}
	if _, err := Repair(gr, nominal, outOfRange, Config{Arch: a}); err == nil {
		t.Error("Repair accepted an out-of-range core")
	}
}

// TestScheduleWithDeadCore checks from-scratch degraded scheduling: a
// core dead from cycle zero takes no ops at all, and the single-core
// schedule is valid.
func TestScheduleWithDeadCore(t *testing.T) {
	a := testArch(2)
	gr := smallGraph(t, a)
	r, err := Schedule(gr, Config{Arch: a, FaultPlan: &fault.Plan{
		CoreDown: []fault.CoreDown{{Core: 0, Cycle: 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, gr, r, a.Cores)
	for _, rec := range r.OpRecords {
		if rec.NPU == 0 {
			t.Fatalf("op %d scheduled on dead core 0", rec.Op)
		}
	}
	healthy, err := Schedule(gr, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if r.LatencyCycles < healthy.LatencyCycles {
		t.Errorf("one-core schedule (%d) faster than two-core (%d)", r.LatencyCycles, healthy.LatencyCycles)
	}
}

// TestRepairKeepsPartialSums checks the repaired schedule resumes psum
// chains without recomputing: committed ops are never rescheduled and
// every chain still completes.
func TestRepairKeepsPartialSums(t *testing.T) {
	a := testArch(4)
	gr := pressureGraph(t, a)
	cfg := Config{Arch: a}
	nominal, err := Schedule(gr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := nominal.LatencyCycles / 2
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 0, Cycle: fc}}}
	repaired, err := Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheduledAt := make(map[int]int, len(repaired.OpRecords))
	for _, rec := range repaired.OpRecords {
		scheduledAt[rec.Op]++
	}
	for op, n := range scheduledAt {
		if n != 1 {
			t.Fatalf("op %d scheduled %d times", op, n)
		}
	}
	// The repaired schedule must not have grown more load traffic than
	// a full restart would: kept partial sums bound the damage.
	restart, err := Schedule(gr, Config{Arch: a, FaultPlan: &fault.Plan{
		CoreDown: []fault.CoreDown{{Core: 0, Cycle: 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if repaired.TrafficBytes() > nominal.TrafficBytes()+restart.TrafficBytes() {
		t.Errorf("repair traffic %d exceeds nominal %d + restart %d",
			repaired.TrafficBytes(), nominal.TrafficBytes(), restart.TrafficBytes())
	}
}

// TestRepairIgnoresCutoff: a cutoff encodes a target for the healthy
// machine, which a degraded schedule is expected to overrun; the run
// loop Repair shares with Schedule honours Config.Cutoff (and its
// CutoffCycles shorthand), so Repair must clear both.
func TestRepairIgnoresCutoff(t *testing.T) {
	a := testArch(4)
	gr := pressureGraph(t, a)
	nominal, err := Schedule(gr, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: nominal.LatencyCycles / 2}}}
	want, err := Repair(gr, nominal, plan, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"Cutoff":       {Arch: a, Cutoff: func(int64, int64) bool { return true }},
		"CutoffCycles": {Arch: a, CutoffCycles: 1},
	} {
		got, err := Repair(gr, nominal, plan, cfg)
		if err != nil {
			t.Fatalf("repair under %s: %v", name, err)
		}
		validateSchedule(t, gr, got, a.Cores)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s changed the repair: %d cycles / %d bytes, want %d / %d",
				name, got.LatencyCycles, got.TrafficBytes(), want.LatencyCycles, want.TrafficBytes())
		}
	}
}

// TestRepairFallbackKeepsReadyOrder pins a repair that takes the
// scheduler's last resort: the scratchpad holds barely more than one
// op's operands, so after the fault no op of the ranked window can be
// placed and nextSetOoO falls back to single ops from the whole ready
// list — enumerated, and pruned by signature, in list order. The run
// resumes from a re-executed prefix, whose ready list is in the order
// the nominal run left it, and takes the fallback six times.
func TestRepairFallbackKeepsReadyOrder(t *testing.T) {
	a := arch.New("sliver4", 4, 1479, 32)
	gr := buildGraph(t, layer.NewConv("fb", 29, 29, 8, 16, 3), tile.Factors{OH: 5, OW: 4, OC: 8, IC: 4}, a)
	cfg := Config{Arch: a}
	nominal, err := Schedule(gr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 15257}}}
	repaired, err := Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, gr, repaired, a.Cores)
	if repaired.LatencyCycles != 30608 || repaired.TrafficBytes() != 135904 {
		t.Errorf("repair = %d cycles / %d bytes, want 30608 / 135904", repaired.LatencyCycles, repaired.TrafficBytes())
	}
}

// TestRepairKeepsDirtyTilesAfterInSetReload: in this schedule one op of
// a set evicts a dirty partial sum that a later op of the set reloads,
// before the fault cycle. The spill must end before the reload starts,
// so the reload reads what the tile's last write left. Every tile that
// is dirty-resident at the fault cycle — written since its last
// committed transfer — must stay resident: re-loading one reads an
// off-chip copy older than its contents.
func TestRepairKeepsDirtyTilesAfterInSetReload(t *testing.T) {
	a := arch.New("tie3", 3, 13312, 32)
	gr := buildGraph(t, layer.NewConv("tie", 16, 16, 16, 32, 5), tile.Factors{OH: 9, OW: 15, OC: 13, IC: 5}, a)
	cfg := Config{Arch: a, Priority: PriorityChainDepth, MemPolicy: spm.PolicySmallestFirst}
	nominal, err := Schedule(gr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const fc = 10620
	inSet := false
	for i, m := range nominal.MemRecords[1:] {
		if sp := nominal.MemRecords[i]; m.Kind == sim.Load && sp.Kind == sim.Spill && sp.Tile == m.Tile && m.Start < fc {
			inSet = true
			if sp.End > m.Start {
				t.Errorf("reload of %v at %d overlaps its spill [%d,%d)", m.Tile, m.Start, sp.Start, sp.End)
			}
		}
	}
	if !inSet {
		t.Fatal("nominal schedule reloads no spilled partial sum right after its spill before the fault cycle")
	}
	plan := &fault.Plan{DMA: []fault.Derate{{From: fc, Factor: 2}}}
	repaired, err := Repair(gr, nominal, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, gr, repaired, a.Cores)
	// The committed records are those that start before the fault cycle.
	// A tile's last committed event decides; a write wins a tie.
	lastWrite, lastMove := map[tile.ID]int64{}, map[tile.ID]int64{}
	for _, o := range repaired.OpRecords {
		if out := gr.Ops[o.Op].Out; o.Start < fc && o.Start+1 > lastWrite[out] {
			lastWrite[out] = o.Start + 1
		}
	}
	for _, m := range repaired.MemRecords {
		if m.Start < fc && m.Start+1 > lastMove[m.Tile] {
			lastMove[m.Tile] = m.Start + 1
		}
	}
	first := map[tile.ID]bool{}
	for _, m := range repaired.MemRecords {
		if m.Start < fc || first[m.Tile] {
			continue
		}
		first[m.Tile] = true
		if w := lastWrite[m.Tile]; m.Kind == sim.Load && w > 0 && w > lastMove[m.Tile] {
			t.Errorf("repair re-loads %v at %d: it was dirty-resident at the fault cycle", m.Tile, m.Start)
		}
	}
}

// TestResultsDoNotAlias pins the ownership rule: a Result owns its
// records and sets, and the engine that made it reuses none of them.
// Graph A is scheduled, then graph B on the pooled engine, then A's
// result is repaired; A's records and sets must still equal a deep copy
// taken when it was made, and one set's ops must not grow into the
// next's.
func TestResultsDoNotAlias(t *testing.T) {
	a := testArch(4)
	grA, grB := pressureGraph(t, a), smallGraph(t, a)
	cfg := Config{Arch: a}
	r, err := Schedule(grA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{
		OpRecords:  slices.Clone(r.OpRecords),
		MemRecords: slices.Clone(r.MemRecords),
		Sets:       slices.Clone(r.Sets),
	}
	for i := range want.Sets {
		want.Sets[i].Ops = slices.Clone(r.Sets[i].Ops)
	}
	if _, err := Schedule(grB, cfg); err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: r.LatencyCycles / 2}}}
	if _, err := Repair(grA, r, plan, cfg); err != nil {
		t.Fatal(err)
	}
	_ = append(r.Sets[0].Ops, -1)
	if !slices.Equal(r.OpRecords, want.OpRecords) || !slices.Equal(r.MemRecords, want.MemRecords) {
		t.Fatal("a later run changed the records of a result handed out earlier")
	}
	if !reflect.DeepEqual(r.Sets, want.Sets) {
		t.Fatal("a later run, or an append to one set's ops, changed the sets of a result handed out earlier")
	}
}
