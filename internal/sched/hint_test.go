package sched

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestHintRepeatsIsExact holds HintRepeats to its proof: whenever an
// unhinted run says the op-order hint repeats it, the hinted run is the
// same schedule — records, sets, totals and both effort counters — over
// single-layer and fused graphs, every priority and spill policy, a
// fault plan, and windows that do and do not hold the ready queue. Both
// answers must occur, and a hinted run must answer false.
func TestHintRepeatsIsExact(t *testing.T) {
	a := testArch(4)
	graphs := map[string]*dfg.Graph{
		"small": smallGraph(t, a), "pressure": pressureGraph(t, a), "fused": fusedTestGraph(t, a),
		// Whole-plane tiles: one input tile per channel block, shared by
		// every op of the block, so a window can stay in op order.
		"plane":       buildGraph(t, layer.NewConv("p", 8, 8, 64, 24, 3), tile.Factors{OH: 8, OW: 8, OC: 16, IC: 8}, a),
		"fused plane": fusedPlaneGraph(t, a),
	}
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 5000}}}
	repeats, differs := map[string]int{}, 0
	for name, gr := range graphs {
		for _, p := range []Priority{PriorityDefault, PriorityMinTransfer, PriorityMinSpill, PriorityChainDepth} {
			for _, mp := range []spm.Policy{spm.PolicyFlexer, spm.PolicyFirstFit, spm.PolicySmallestFirst} {
				for _, window := range []int{2, 64} {
					for _, fp := range []*fault.Plan{nil, plan} {
						cfg := Config{Arch: a, Priority: p, MemPolicy: mp, MaxReadyWindow: window, FaultPlan: fp}
						label := fmt.Sprintf("%s/%v/%v/w%d/faults=%v", name, p, mp, window, fp != nil)
						r, err := Schedule(gr, cfg)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						n := len(gr.Ops)
						if !r.HintRepeats() {
							differs++
							continue
						}
						repeats[name]++
						cfg.Hint = seq(n)
						hinted, err := Schedule(gr, cfg)
						if err != nil {
							t.Fatalf("%s hinted: %v", label, err)
						}
						if hinted.HintRepeats() {
							t.Fatalf("%s: a hinted run answers true", label)
						}
						want := *r
						want.opOrderSame = false
						if !reflect.DeepEqual(*hinted, want) {
							t.Fatalf("%s: the op-order hint was said to repeat the run, but it made another schedule (%d vs %d cycles, %d vs %d sets evaluated)",
								label, hinted.LatencyCycles, r.LatencyCycles, hinted.SetsEvaluated, r.SetsEvaluated)
						}
					}
				}
			}
		}
	}
	if repeats["plane"] == 0 || repeats["fused plane"] == 0 || differs == 0 {
		t.Fatalf("runs repeating the op-order hint by graph: %v, and %d do not; the test needs both", repeats, differs)
	}

	gr := graphs["plane"]
	nominal, err := Schedule(gr, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if !nominal.HintRepeats() {
		t.Fatal("the nominal schedule is meant to repeat the op-order hint")
	}
	repaired, err := Repair(gr, nominal, &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: nominal.LatencyCycles / 2}}}, Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	decoded := new(Result)
	if err := gob.NewEncoder(&buf).Encode(nominal); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(decoded); err != nil {
		t.Fatal(err)
	}
	if repaired.HintRepeats() || decoded.HintRepeats() {
		t.Error("a repaired or a decoded result answers true")
	}
}

// fusedPlaneGraph fuses two layers of whole-plane tiles.
func fusedPlaneGraph(t testing.TB, a arch.Config) *dfg.Graph {
	t.Helper()
	g1, err := tile.NewGrid(layer.NewConv("a", 8, 8, 16, 16, 3), tile.Factors{OH: 8, OW: 8, OC: 8, IC: 8})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tile.NewGrid(layer.NewConv("b", 8, 8, 16, 8, 3), tile.Factors{OH: 8, OW: 8, OC: 2, IC: 8})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := dfg.BuildFused([]*tile.Grid{g1, g2}, model.New(a))
	if err != nil {
		t.Fatal(err)
	}
	return gr
}
