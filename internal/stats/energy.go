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
// operand byte its ops touch — each tile once per op that reads it —
// and DRAM energy for every byte of off-chip traffic.
func (m EnergyModel) energyPJ(g *tile.Grid, r *sched.Result) float64 {
	var spmBytes int64
	for k := range tile.NumKinds {
		spmBytes += int64(g.Readers(tile.Kind(k))) * g.TotalTileBytes(tile.Kind(k))
	}
	macs, dram := float64(g.Layer.MACs()), float64(r.TrafficBytes())
	return macs*m.MACpJ + float64(spmBytes)*m.SPMpJPerByte + dram*m.DRAMpJPerByte
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
