package model

import (
	"testing"
	"testing/quick"

	"github.com/flexer-sched/flexer/internal/arch"
)

func testModel() Model {
	return New(arch.New("test", 2, arch.KiB(256), 32))
}

func TestConvCyclesFullArray(t *testing.T) {
	m := testModel()
	// A tile that exactly fills the 32x32 array: one pass per spatial
	// position and kernel tap.
	got := m.ConvCycles(4, 4, 32, 32, 3, 3)
	want := int64(1*1*16*9) + computeFillCycles
	if got != want {
		t.Errorf("ConvCycles(4,4,32,32,3,3) = %d, want %d", got, want)
	}
}

func TestConvCyclesRoundsUpChannels(t *testing.T) {
	m := testModel()
	// 33 channels need two passes in each dimension.
	full := m.ConvCycles(2, 2, 32, 32, 1, 1)
	over := m.ConvCycles(2, 2, 33, 33, 1, 1)
	if over != (full-computeFillCycles)*4+computeFillCycles {
		t.Errorf("33-channel tile = %d cycles, want 4x the 32-channel passes (%d)", over, (full-computeFillCycles)*4+computeFillCycles)
	}
	// Small tiles still pay full passes (utilization loss).
	small := m.ConvCycles(2, 2, 1, 1, 1, 1)
	if small != full {
		t.Errorf("1-channel tile = %d, want same passes as 32-channel tile %d", small, full)
	}
}

func TestConvCyclesMonotone(t *testing.T) {
	m := testModel()
	check := func(r, c, oc, ic, k uint8) bool {
		rows, cols := int(r%16)+1, int(c%16)+1
		ochs, ichs := int(oc%96)+1, int(ic%96)+1
		ker := int(k%5) + 1
		base := m.ConvCycles(rows, cols, ochs, ichs, ker, ker)
		// Growing any dimension never reduces latency.
		return m.ConvCycles(rows+1, cols, ochs, ichs, ker, ker) >= base &&
			m.ConvCycles(rows, cols+1, ochs, ichs, ker, ker) >= base &&
			m.ConvCycles(rows, cols, ochs+1, ichs, ker, ker) >= base &&
			m.ConvCycles(rows, cols, ochs, ichs+1, ker, ker) >= base &&
			m.ConvCycles(rows, cols, ochs, ichs, ker+1, ker) >= base
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestConvCyclesLowerBound: the model can never beat the roofline of
// peRows x peCols MACs per cycle.
func TestConvCyclesLowerBound(t *testing.T) {
	m := testModel()
	check := func(r, c, oc, ic, k uint8) bool {
		rows, cols := int(r%16)+1, int(c%16)+1
		ochs, ichs := int(oc%96)+1, int(ic%96)+1
		ker := int(k%5) + 1
		macs := int64(rows) * int64(cols) * int64(ochs) * int64(ichs) * int64(ker) * int64(ker)
		minCycles := macs / int64(m.peRows*m.peCols)
		return m.ConvCycles(rows, cols, ochs, ichs, ker, ker) >= minCycles
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTransferCycles(t *testing.T) {
	m := testModel() // 32 B/cycle
	if got := m.TransferCycles(0); got != 0 {
		t.Errorf("TransferCycles(0) = %d, want 0", got)
	}
	if got := m.TransferCycles(-5); got != 0 {
		t.Errorf("TransferCycles(-5) = %d, want 0", got)
	}
	if got, want := m.TransferCycles(32), int64(dmaSetupCycles+1); got != want {
		t.Errorf("TransferCycles(32) = %d, want %d", got, want)
	}
	if got, want := m.TransferCycles(33), int64(dmaSetupCycles+2); got != want {
		t.Errorf("TransferCycles(33) = %d, want %d (rounds up)", got, want)
	}
	if got, want := m.TransferCycles(1<<20), int64(dmaSetupCycles+(1<<20)/32); got != want {
		t.Errorf("TransferCycles(1 MiB) = %d, want %d", got, want)
	}
}

func TestBandwidthScalesTransfers(t *testing.T) {
	slow := New(arch.New("slow", 2, arch.KiB(256), 32))
	fast := New(arch.New("fast", 2, arch.KiB(256), 64))
	n := int64(1 << 16)
	if s, f := slow.TransferCycles(n), fast.TransferCycles(n); s <= f {
		t.Errorf("doubling bandwidth did not speed transfers: %d vs %d", s, f)
	}
}

func TestAccessors(t *testing.T) {
	m := testModel()
	if m.peRows != 32 || m.peCols != 32 {
		t.Errorf("PE geometry = %dx%d, want 32x32", m.peRows, m.peCols)
	}
	if m.bwBytes != 32 {
		t.Errorf("bandwidth = %d, want 32", m.bwBytes)
	}
}
