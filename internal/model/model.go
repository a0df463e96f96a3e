// Package model provides the performance model Flexer consults: the
// compute latency of a tiled convolution on one NPU core's PE array and
// the transfer latency of DMA operations between off-chip memory and the
// shared scratchpad.
//
// The paper evaluates on a proprietary cycle-accurate simulator of a
// 32x32-PE NPU at 1 GHz. This package substitutes an analytic model of
// the same machine: the PE array processes one kernel position of up to
// PERows input channels x PECols output channels per cycle per output
// pixel, so small channel tiles lose utilization exactly as they do on
// real spatial arrays. The DMA channel moves BandwidthBytesPerCycle
// bytes per cycle and is shared by all cores.
package model

import (
	"github.com/flexer-sched/flexer/internal/arch"
)

// Model computes operation latencies for one hardware configuration.
// The zero value is not usable; construct with New.
type Model struct {
	peRows, peCols int
	bwBytes        int
}

// Latency constants of the modelled machine, in cycles.
const (
	// computeFillCycles is the pipeline fill/drain overhead of one
	// tiled op (systolic array fill, ~rows+cols).
	computeFillCycles = 64
	// dmaSetupCycles is the fixed descriptor-setup cost of one DMA
	// transfer.
	dmaSetupCycles = 32
)

// New builds a model for the given hardware configuration.
func New(cfg arch.Config) Model {
	return Model{peRows: cfg.PERows, peCols: cfg.PECols, bwBytes: cfg.BandwidthBytesPerCycle}
}

// ConvCycles returns the compute latency of one tiled convolution step
// producing a rows x cols x ochs output (or partial-sum) tile from ichs
// input channels with a kerH x kerW kernel.
//
// The mapping parallelizes input channels across PE rows and output
// channels across PE columns; spatial positions and kernel taps are
// iterated sequentially. Channel tiles that are not multiples of the PE
// dimensions round up, modelling the utilization loss of small tiles.
func (m Model) ConvCycles(rows, cols, ochs, ichs, kerH, kerW int) int64 {
	icPasses := int64(ceilDiv(ichs, m.peRows))
	ocPasses := int64(ceilDiv(ochs, m.peCols))
	spatial := int64(rows) * int64(cols)
	taps := int64(kerH) * int64(kerW)
	return icPasses*ocPasses*spatial*taps + computeFillCycles
}

// TransferCycles returns the DMA latency of moving n bytes between
// off-chip memory and the scratchpad, including fixed setup cost.
// Zero-byte transfers are free.
func (m Model) TransferCycles(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return dmaSetupCycles + ceilDiv64(n, int64(m.bwBytes))
}

// gatherBWFactor is the on-chip bandwidth advantage of SPM-to-SPM
// copies over off-chip DMA: a gather never crosses the DRAM pins, so it
// runs at the interconnect's width rather than the memory channel's.
const gatherBWFactor = 4

// GatherCycles returns the latency of assembling n bytes of a fused
// consumer tile from scratchpad-resident producer tiles (an on-chip
// SPM-to-SPM copy). It occupies the same DMA engine as off-chip
// transfers but moves gatherBWFactor bytes per cycle per byte of
// off-chip bandwidth and causes no off-chip traffic.
func (m Model) GatherCycles(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return dmaSetupCycles + ceilDiv64(n, int64(m.bwBytes)*gatherBWFactor)
}

// FillCycles returns the fixed pipeline fill/drain overhead charged to
// every tiled op, the additive constant of ConvCycles. Lower-bound
// computations use it to price op counts without enumerating ops.
func (m Model) FillCycles() int64 { return computeFillCycles }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
