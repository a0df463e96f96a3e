package stats

import (
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/tile"
)

// EnergyModel estimates schedule energy from first-order per-event
// costs, in picojoules. The defaults follow the widely used 45 nm
// numbers from Horowitz's ISSCC'14 keynote ("Computing's energy
// problem"), the same style of model the accelerator literature
// (Eyeriss et al.) builds on: a 16-bit MAC costs roughly 1 pJ, an
// on-chip SRAM access a few pJ/byte, and DRAM around 160 pJ/byte.
// The paper motivates Flexer with energy efficiency but reports only
// latency and traffic; this model turns those two quantities into a
// single energy estimate for the same comparisons.
type EnergyModel struct {
	// MACpJ is the energy of one multiply-accumulate.
	MACpJ float64
	// SPMpJPerByte is the energy of moving one byte in or out of the
	// on-chip scratchpad.
	SPMpJPerByte float64
	// DRAMpJPerByte is the energy of moving one byte across the
	// off-chip interface.
	DRAMpJPerByte float64
}

// DefaultEnergyModel returns the 45 nm first-order constants.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{MACpJ: 1.0, SPMpJPerByte: 6.0, DRAMpJPerByte: 160.0}
}

// energyPJ estimates the energy of a schedule in picojoules: compute
// energy for every MAC of the layer, scratchpad energy for every
// operand byte touched by an op (three operands per op), and DRAM
// energy for every byte of off-chip traffic.
func (m EnergyModel) energyPJ(g *tile.Grid, r *sched.Result) float64 {
	macs := float64(g.Layer.MACs())
	var spmBytes float64
	for _, rec := range r.OpRecords {
		op := opOperands(g, rec.Op)
		spmBytes += float64(op)
	}
	dram := float64(r.TrafficBytes())
	return macs*m.MACpJ + spmBytes*m.SPMpJPerByte + dram*m.DRAMpJPerByte
}

// opOperands returns the operand bytes of op index i in canonical
// order (the scheduler issues ops by graph index).
func opOperands(g *tile.Grid, i int) int64 {
	nic := g.NIC
	noc := g.NOC
	now := g.NOW
	ic := i % nic
	oc := (i / nic) % noc
	ow := (i / (nic * noc)) % now
	oh := i / (nic * noc * now)
	return g.Size(g.InTile(oh, ow, ic)) + g.Size(g.WtTile(oc, ic)) + g.Size(g.OutTile(oh, ow, oc))
}

// EnergyComparison reports OoO and static energy for one layer result
// plus their ratio (static/OoO; >1 means OoO saves energy).
type EnergyComparison struct {
	OoOPJ, StaticPJ float64
	Saving          float64
}

// CompareEnergy evaluates both schedules of a layer search under the
// model. Both schedules may use different tilings; each is charged
// against its own grid.
func (m EnergyModel) CompareEnergy(oooGrid, staticGrid *tile.Grid, ooo, static *sched.Result) EnergyComparison {
	o := m.energyPJ(oooGrid, ooo)
	s := m.energyPJ(staticGrid, static)
	return EnergyComparison{OoOPJ: o, StaticPJ: s, Saving: s / o}
}
