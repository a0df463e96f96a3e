package sim

import (
	"testing"
	"unsafe"

	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestMemRecordSize pins a memory record at 48 bytes: a schedule keeps
// one per load, gather, spill and write-back.
func TestMemRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(MemRecord{}); got != 48 {
		t.Errorf("sim.MemRecord is %d bytes, want 48", got)
	}
}

func TestNewPanicsOnBadCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestTransferSerializesOnDMA(t *testing.T) {
	tl := New(2)
	a := tl.Transfer(tile.ID{Kind: tile.In}, Load, 64, 10, 0)
	b := tl.Transfer(tile.ID{Kind: tile.Wt}, Load, 64, 20, 0)
	if a.Start != 0 || a.End != 10 {
		t.Errorf("first transfer [%d,%d), want [0,10)", a.Start, a.End)
	}
	if b.Start != 10 || b.End != 30 {
		t.Errorf("second transfer [%d,%d), want [10,30)", b.Start, b.End)
	}
	if tl.DMAFree() != 30 {
		t.Errorf("DMAFree = %d, want 30", tl.DMAFree())
	}
}

func TestTransferHonorsNotBefore(t *testing.T) {
	tl := New(1)
	rec := tl.Transfer(tile.ID{}, Spill, 64, 5, 100)
	if rec.Start != 100 || rec.End != 105 {
		t.Errorf("transfer [%d,%d), want [100,105)", rec.Start, rec.End)
	}
}

func TestIssueAndLeastBusy(t *testing.T) {
	tl := New(2)
	r0 := tl.Issue(0, tl.leastBusyNPU(), 0, 100)
	if r0.NPU != 0 || r0.Start != 0 || r0.End != 100 {
		t.Fatalf("first op = %+v", r0)
	}
	r1 := tl.Issue(1, tl.leastBusyNPU(), 0, 50)
	if r1.NPU != 1 {
		t.Fatalf("second op on NPU %d, want 1", r1.NPU)
	}
	// NPU 1 is free at 50, so it is the least busy.
	if got := tl.leastBusyNPU(); got != 1 {
		t.Fatalf("leastBusyNPU = %d, want 1", got)
	}
	r2 := tl.Issue(2, 1, 200, 10)
	if r2.Start != 200 || r2.End != 210 {
		t.Fatalf("earliest not honored: %+v", r2)
	}
	if tl.NPUFree(1) != 210 {
		t.Fatalf("NPUFree(1) = %d", tl.NPUFree(1))
	}
}

func TestMakespanCoversComputeAndDMA(t *testing.T) {
	tl := New(2)
	tl.Issue(0, 0, 0, 100)
	if tl.Makespan() != 100 {
		t.Fatalf("makespan = %d, want 100", tl.Makespan())
	}
	tl.Transfer(tile.ID{}, Writeback, 64, 500, 0)
	if tl.Makespan() != 500 {
		t.Fatalf("makespan = %d, want 500 (DMA tail)", tl.Makespan())
	}
}

func TestRecordsAccumulate(t *testing.T) {
	tl := New(1)
	tl.Issue(0, 0, 0, 10)
	tl.Issue(1, 0, 0, 10)
	tl.Transfer(tile.ID{}, Load, 8, 4, 0)
	if len(tl.Ops()) != 2 || len(tl.Mems()) != 1 {
		t.Fatalf("records: %d ops, %d mems", len(tl.Ops()), len(tl.Mems()))
	}
	if tl.Cores() != 1 {
		t.Fatalf("Cores = %d", tl.Cores())
	}
}

func TestMemKindStrings(t *testing.T) {
	if Load.String() != "load" || Spill.String() != "spill" || Writeback.String() != "writeback" {
		t.Error("mem kind names changed")
	}
	if MemKind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// TestHoldSeedsResources: Hold is a floor on every resource. It delays
// what starts after it and leaves busier resources and the records
// alone.
func TestHoldSeedsResources(t *testing.T) {
	tl := New(2)
	tl.Issue(0, 0, 0, 100)
	tl.Transfer(tile.ID{}, Load, 8, 200, 0)
	tl.Hold(50)
	if tl.NPUFree(0) != 100 || tl.NPUFree(1) != 50 || tl.DMAFree() != 200 {
		t.Fatalf("held timeline: npu0=%d npu1=%d dma=%d, want 100 50 200", tl.NPUFree(0), tl.NPUFree(1), tl.DMAFree())
	}
	if len(tl.Ops()) != 1 || len(tl.Mems()) != 1 {
		t.Fatalf("Hold changed the records: %d op and %d DMA records, want 1 and 1", len(tl.Ops()), len(tl.Mems()))
	}
	tl.Hold(300)
	if rec := tl.Transfer(tile.ID{}, Load, 8, 10, 0); rec.Start != 300 {
		t.Fatalf("transfer started at %d, want 300 (the floor)", rec.Start)
	}
	if op := tl.Issue(3, 1, 0, 5); op.Start != 300 {
		t.Fatalf("op started at %d, want 300 (the floor)", op.Start)
	}
	if got := tl.Makespan(); got != 310 {
		t.Fatalf("makespan = %d, want 310", got)
	}
}

func TestFaultsFlakySlowdown(t *testing.T) {
	tl := New(1)
	tl.SetFaults(&fault.Plan{Flaky: []fault.Flaky{{Core: 0, From: 100, To: 200, Slowdown: 2}}})
	before := tl.Issue(0, 0, 0, 50) // starts at 0, outside the window
	if before.End-before.Start != 50 {
		t.Fatalf("op outside window stretched: %+v", before)
	}
	inside := tl.Issue(1, 0, 120, 50) // starts at 120, inside
	if inside.Start != 120 || inside.End != 220 {
		t.Fatalf("op inside window = [%d,%d), want [120,220)", inside.Start, inside.End)
	}
	after := tl.Issue(2, 0, 0, 50) // starts at 220, window closed
	if after.End-after.Start != 50 {
		t.Fatalf("op after window stretched: %+v", after)
	}
}

func TestFaultsDMADerate(t *testing.T) {
	tl := New(1)
	tl.SetFaults(&fault.Plan{DMA: []fault.Derate{{From: 100, To: 300, Factor: 3}}})
	a := tl.Transfer(tile.ID{}, Load, 8, 40, 0)
	if a.End-a.Start != 40 {
		t.Fatalf("transfer before window stretched: %+v", a)
	}
	b := tl.Transfer(tile.ID{}, Load, 8, 40, 150)
	if b.Start != 150 || b.End != 270 {
		t.Fatalf("derated transfer = [%d,%d), want [150,270)", b.Start, b.End)
	}
}

func TestBestNPUSkipsDeadCores(t *testing.T) {
	tl := New(2)
	// Without faults, BestNPU is leastBusyNPU.
	if got := tl.BestNPU(0, 10); got != tl.leastBusyNPU() {
		t.Fatalf("BestNPU without faults = %d, want %d", got, tl.leastBusyNPU())
	}
	tl.SetFaults(&fault.Plan{CoreDown: []fault.CoreDown{{Core: 0, Cycle: 100}}})
	// Core 0 is free earlier but the op would start at its death cycle.
	if got := tl.BestNPU(100, 10); got != 1 {
		t.Fatalf("BestNPU(100) = %d, want 1 (core 0 dead at 100)", got)
	}
	// Before the death cycle core 0 is usable.
	if got := tl.BestNPU(0, 10); got != 0 {
		t.Fatalf("BestNPU(0) = %d, want 0 (still alive)", got)
	}
	// A flaky survivor can lose to a busier healthy core.
	tl2 := New(2)
	tl2.SetFaults(&fault.Plan{Flaky: []fault.Flaky{{Core: 0, From: 0, To: 1000, Slowdown: 10}}})
	tl2.Issue(0, 1, 0, 30) // core 1 busy until 30
	// Core 0 would run 10x slower (end 100); core 1 ends at 40.
	if got := tl2.BestNPU(0, 10); got != 1 {
		t.Fatalf("BestNPU = %d, want 1 (flaky core 0 finishes later)", got)
	}
}

func TestIssueOnDeadCorePanics(t *testing.T) {
	tl := New(1)
	tl.SetFaults(&fault.Plan{
		CoreDown: []fault.CoreDown{{Core: 0, Cycle: 50}},
		Flaky:    []fault.Flaky{{Core: 0, From: 0, To: 10, Slowdown: 2}},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Issue on a dead core did not panic")
		}
	}()
	tl.Issue(0, 0, 60, 10)
}

func TestSetFaultsEmptyPlanIsNominal(t *testing.T) {
	tl := New(1)
	tl.SetFaults(&fault.Plan{})
	if tl.faults != nil {
		t.Fatal("empty plan not normalized to nil")
	}
}
