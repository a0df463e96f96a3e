package stats

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sched"
)

func TestEnergyPJPositiveAndOrdered(t *testing.T) {
	gr, r := schedulePressure(t)
	m := DefaultEnergyModel()
	e := m.energyPJ(gr.Grid, r)
	if e <= 0 {
		t.Fatalf("energy = %f", e)
	}
	// DRAM traffic dominates compute for this layer under the default
	// constants; halving DRAM cost must reduce energy.
	cheap := m
	cheap.DRAMpJPerByte /= 2
	if cheap.energyPJ(gr.Grid, r) >= e {
		t.Error("cheaper DRAM did not reduce energy")
	}
}

func TestEnergyTracksTraffic(t *testing.T) {
	// Two schedules of the same graph: the one with more traffic must
	// cost more energy (compute and SPM terms are identical for the
	// same tiling).
	gr, ooo := schedulePressure(t)
	a := arch.New("t", 2, arch.KiB(256), 32)
	worst := loop.Dataflow{Name: "os", Perm: [4]loop.Dim{loop.OH, loop.OW, loop.OC, loop.IC}}
	static, err := sched.Schedule(gr, sched.Config{Arch: a, Model: model.New(a), Order: loop.Order(gr, worst)})
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultEnergyModel()
	eOoO := m.energyPJ(gr.Grid, ooo)
	eStatic := m.energyPJ(gr.Grid, static)
	if (ooo.TrafficBytes() < static.TrafficBytes()) != (eOoO < eStatic) {
		t.Errorf("energy ordering disagrees with traffic: ooo %d B / %f pJ, static %d B / %f pJ",
			ooo.TrafficBytes(), eOoO, static.TrafficBytes(), eStatic)
	}
	cmp := m.CompareEnergy(gr.Grid, gr.Grid, ooo, static)
	if cmp.OoOPJ != eOoO || cmp.StaticPJ != eStatic {
		t.Error("CompareEnergy disagrees with energyPJ")
	}
	if cmp.Saving <= 0 {
		t.Errorf("saving = %f", cmp.Saving)
	}
}

func TestOpOperandsConsistentWithGraph(t *testing.T) {
	gr, _ := schedulePressure(t)
	for i, op := range gr.Ops {
		want := gr.Grid.Size(op.In) + gr.Grid.Size(op.Wt) + gr.Grid.Size(op.Out)
		if got := opOperands(gr.Grid, i); got != want {
			t.Fatalf("op %d operands = %d, want %d", i, got, want)
		}
	}
}
