package sched_test

// The verifier's view of the scheduler, in an external test package
// because verify imports sched.

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
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
	"github.com/flexer-sched/flexer/internal/verify"
)

// checkCase is the property, on the case name: gr scheduled under cfg.
// The nominal schedule — under cfg's fault plan, if it has one — passes
// verify.ScheduleFaults; with a gather moved to cycle 0, a gather moved
// into an idle stretch of the DMA channel before its producers finish
// (earlyGather), or a final write-back that is its tile's only off-chip
// copy dropped, it does not. A plan-free case is then repaired under
// fault.Random(repairSeed), and both the repaired schedule and one made
// from scratch under that plan verify. A case whose tiles fit no
// scratchpad may fail to schedule, and the repair of a static or hinted
// nominal may stall; nothing else may fail. It returns what a scheduled
// case exercised, as tally labels.
func checkCase(t testing.TB, name string, gr *dfg.Graph, cfg sched.Config, repairSeed int64) []string {
	t.Helper()
	nominal, err := sched.Schedule(gr, cfg)
	if err != nil {
		return nil
	}
	verified := func(what string, r *sched.Result, plan *fault.Plan) {
		t.Helper()
		if err := verify.ScheduleFaults(gr, r, cfg.Arch, plan); err != nil {
			t.Fatalf("%s: %s under %v: %v", name, what, plan, err)
		}
	}
	rejected := func(what string, corrupt func(ms []sim.MemRecord) []sim.MemRecord) {
		t.Helper()
		bad := *nominal
		bad.MemRecords = corrupt(slices.Clone(nominal.MemRecords))
		if verify.ScheduleFaults(gr, &bad, cfg.Arch, cfg.FaultPlan) == nil {
			t.Fatalf("%s: the verifier accepts %s", name, what)
		}
	}
	verified("nominal", nominal, cfg.FaultPlan)
	offchip := map[tile.ID]int{} // a spill after the last accumulation is an off-chip copy too
	for _, m := range nominal.MemRecords {
		if m.Kind == sim.Spill || m.Kind == sim.Writeback {
			offchip[m.Tile]++
		}
	}
	if i := slices.IndexFunc(nominal.MemRecords, func(m sim.MemRecord) bool { return m.Kind == sim.Gather }); i >= 0 {
		rejected("a gather moved to cycle 0", func(ms []sim.MemRecord) []sim.MemRecord {
			ms[i].Start, ms[i].End = 0, ms[i].End-ms[i].Start
			return ms
		})
	}
	i, at, early := earlyGather(gr, nominal, cfg.FaultPlan)
	if early {
		rejected("a gather moved before its producers finish", func(ms []sim.MemRecord) []sim.MemRecord {
			ms[i].Start, ms[i].End = at, at+ms[i].End-ms[i].Start
			return ms
		})
	}
	if i := slices.IndexFunc(nominal.MemRecords, func(m sim.MemRecord) bool {
		return m.Kind == sim.Writeback && offchip[m.Tile] == 1
	}); i >= 0 {
		rejected("a final write-back dropped", func(ms []sim.MemRecord) []sim.MemRecord { return slices.Delete(ms, i, i+1) })
	}
	seen := []string{cfg.Priority.String(), fmt.Sprintf("%d-core", cfg.Arch.Cores)}
	add := func(yes bool, label string) {
		if yes {
			seen = append(seen, label)
		}
	}
	for _, g := range gr.Grids() {
		l, f := g.Layer, g.F
		add(l.StrideH == 2, "stride 2")
		add(l.KerH == 5, "kernel 5")
		add(f.OH == l.OutH() || f.OW == l.OutW() || f.OC == l.OutC || f.IC == l.InC, "whole-dimension tile")
	}
	add(gr.LastLayer() > 0, "fused")
	add(early, "gather before its producers")
	add(cfg.Order != nil, "static")
	add(cfg.Hint != nil, "hinted")
	if !cfg.FaultPlan.Empty() {
		return append(seen, "faulted")
	}
	plan := fault.Random(repairSeed, cfg.Arch.Cores, nominal.LatencyCycles)
	repaired, err := sched.Repair(gr, nominal, plan, cfg)
	if errors.Is(err, sched.ErrNoProgress) && (cfg.Order != nil || cfg.Hint != nil) {
		// Repair re-plans out of order from where a static or hinted
		// prefix left the scratchpad, and an out-of-order run can still
		// stall where an ordered one completes.
		return append(seen, "repair stalled")
	}
	if err != nil {
		t.Fatalf("%s: repair under %v: %v", name, plan, err)
	}
	verified("repaired", repaired, plan)
	cfg.FaultPlan = plan
	scratch, err := sched.Schedule(gr, cfg)
	if err != nil {
		t.Fatalf("%s: scheduled from scratch under %v: %v", name, plan, err)
	}
	verified("scheduled from scratch", scratch, plan)
	return append(seen, "repaired")
}

// earlyGather finds a gather of r, by its index in r.MemRecords, and a
// cycle to move it to that breaks verify's producer rule alone: its
// covering producers have not all finished by then, the DMA channel is
// idle from then for as long as the gather takes, and plan derates the
// channel no more there than where the gather ran. The tile then
// arrives no later than it did.
func earlyGather(gr *dfg.Graph, r *sched.Result, plan *fault.Plan) (int, int64, bool) {
	end := make([]int64, len(gr.Ops))
	for _, rec := range r.OpRecords {
		end[rec.Op] = rec.End
	}
	mems := slices.Clone(r.MemRecords)
	slices.SortStableFunc(mems, func(a, b sim.MemRecord) int { return cmp.Compare(a.Start, b.Start) })
	for i, g := range r.MemRecords {
		if g.Kind != sim.Gather {
			continue
		}
		var fin int64 // when the last of its producers finishes
		for _, ot := range gr.Covering(g.Tile) {
			fin = max(fin, end[gr.FinalOp(ot)])
		}
		var free int64 // the channel is idle from here to the next transfer
		for _, m := range mems {
			if free >= fin {
				break
			}
			if m == g {
				continue
			}
			if m.Start-free >= g.End-g.Start && plan.DMAFactor(free) <= plan.DMAFactor(g.Start) {
				return i, free, true
			}
			free = max(free, m.End)
		}
	}
	return 0, 0, false
}

// TestDrawnSchedulesVerify runs checkCase over seeded draws of the
// repository's one random scheduling case, drawWalkCase with
// drawFloorCase's fault plans, after a regression case. The draw is
// the union of what four generators drew:
//
//	               drawWalkCase before   TestFuzzScheduler  repairCase      FuzzFusedResidency  now
//	cores          2, 4, 8               1-4                1-4             2-4                 1-4, 8
//	scratchpad     4-252 KiB             64-255 KiB         64-255 KiB      24-255 KiB          4-252 KiB
//	rows, columns  6-17                  4-23, square       4-19, square    6-17, square        4-23
//	channels       8-47                  8-96               8-64            8-32                8-96
//	kernel         1, 3                  1, 3, 5            1, 3, 5         1, 3                1, 3, 5
//	stride         1                     1, 2               1               1                   1, 2 (first layer)
//	tile extents   2-6 rows, 4-19 ch.    1 to whole         1 to whole      1 to whole          1 to whole
//	ops            160; 200 fused        600                300             400, fused only     300; 400 fused
//	priorities     all four              three              three           three               all four
//	windows, caps  drawn                 default            default         default             drawn
//	static order   op index, also fused  24 orders          none            none                24 orders, single layers
//	hint           3 canonical orders    6 canonical        none            none                6 canonical
//	fault plans    half the cases        none               one, repaired   none                half; the rest repaired
//
// TestFuzzScheduler's graphs of 300 to 600 ops are left out: the set
// walk's oracle, which reads the same draw, costs too much on them.
// The tally must reach each priority, 1-, 3- and 8-core machines,
// stride 2, kernel 5, a whole-dimension tile, a gather it can move before
// its producers, and fused, static, hinted, faulted and repaired cases.
func TestDrawnSchedulesVerify(t *testing.T) {
	t.Run("fused-1442", func(t *testing.T) {
		// FuzzFusedResidency's corpus entry (its seed 1442), written out.
		a := arch.New("fz", 4, arch.KiB(39), 32)
		gr := fusedPair(t, a, layer.NewConv("p", 16, 16, 16, 32, 3), tile.Factors{OH: 13, OW: 8, OC: 19, IC: 16},
			layer.NewConv("c", 16, 16, 32, 8, 3), tile.Factors{OH: 4, OW: 10, OC: 8, IC: 19})
		cfg := sched.Config{Arch: a, Priority: sched.PriorityMinTransfer, MemPolicy: spm.PolicyFlexer}
		if checkCase(t, "fused-1442", gr, cfg, 1442) == nil {
			t.Error("the fused regression case no longer schedules")
		}
	})
	rng := rand.New(rand.NewSource(53))
	target := 300
	if testing.Short() {
		target = 60
	}
	tally := map[string]int{}
	for cases := 0; cases < target; {
		if name, gr, cfg, ok := sched.DrawCase(rng.Intn); ok {
			cases++
			for _, label := range checkCase(t, name, gr, cfg, rng.Int63()) {
				tally[label]++
			}
		}
	}
	t.Logf("%d cases: %v", target, tally)
	for _, label := range append(sched.PriorityNames(), "1-core", "3-core", "8-core", "stride 2", "kernel 5",
		"whole-dimension tile", "fused", "gather before its producers", "static", "hinted", "faulted", "repaired") {
		if tally[label] == 0 {
			t.Errorf("the draw scheduled no %s case", label)
		}
	}
}

// FuzzDrawnSchedules runs checkCase on a case, and then the repair
// seed, drawn from the fuzz input. Run with `go test
// -fuzz='^FuzzDrawnSchedules$'`; the seed corpus, FuzzFloors', runs in
// normal test mode.
func FuzzDrawnSchedules(f *testing.F) {
	for _, seed := range sched.FloorSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := sched.FuzzDraws(data)
		if name, gr, cfg, ok := sched.DrawCase(next); ok {
			checkCase(t, name, gr, cfg, int64(next(1<<16)))
		}
	})
}

// TestStaticOrderOnFusedGraphRejected: a loop order is per grid, and
// in-order issue knows only an op's chain predecessor, so a static
// order over a fused pair can issue a consumer in the same set as a
// producer it gathers from. Schedule refuses the order.
func TestStaticOrderOnFusedGraphRejected(t *testing.T) {
	a := arch.New("f", 8, arch.KiB(128), 64)
	gr := fusedPair(t, a, layer.NewConv("a", 6, 8, 16, 8, 3), tile.Factors{OH: 3, OW: 6, OC: 8, IC: 11},
		layer.NewConv("b", 6, 8, 8, 30, 3), tile.Factors{OH: 5, OW: 5, OC: 6, IC: 8})
	order := make([]int, len(gr.Ops))
	for i := range order {
		order[i] = i
	}
	if r, err := sched.Schedule(gr, sched.Config{Arch: a, Order: order}); err == nil {
		t.Fatalf("a static order on a fused graph was scheduled; the verifier says %v", verify.Schedule(gr, r, a))
	}
}

// fusedPair is the fused graph of l1 and l2 under f1 and f2.
func fusedPair(t *testing.T, a arch.Config, l1 layer.Conv, f1 tile.Factors, l2 layer.Conv, f2 tile.Factors) *dfg.Graph {
	t.Helper()
	g1, err1 := tile.NewGrid(l1, f1)
	g2, err2 := tile.NewGrid(l2, f2)
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}
	gr, err := dfg.BuildFused([]*tile.Grid{g1, g2}, model.New(a))
	if err != nil {
		t.Fatal(err)
	}
	return gr
}
