// Package sim provides the timing substrate of the reproduction: a
// multi-NPU timeline with one compute resource per core and a single
// shared DMA channel to off-chip memory. The scheduler issues compute
// operations and memory transfers against this timeline; latency and
// overlap fall out of resource availability and dependency times, which
// is the level of detail the paper's evaluation relies on (per-op
// latencies come from a cycle model, contention from the shared DMA).
package sim

import (
	"fmt"

	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/tile"
)

// OpRecord is one scheduled compute operation.
type OpRecord struct {
	Op         int   // op index in the DFG
	NPU        int   // core the op ran on
	Start, End int64 // cycle interval [Start, End)
}

// MemKind distinguishes DMA transfer directions and purposes.
type MemKind uint8

const (
	// Load moves a tile from off-chip memory into the scratchpad.
	Load MemKind = iota
	// Spill writes a dirty tile back to off-chip memory to make room.
	Spill
	// Writeback is the final transfer of a finished output tile.
	Writeback
	// Gather assembles a fused consumer-layer input tile from
	// scratchpad-resident producer output tiles: an on-chip SPM-to-SPM
	// copy that occupies the DMA engine but causes no off-chip traffic.
	Gather
)

// String names the transfer kind.
func (k MemKind) String() string {
	switch k {
	case Load:
		return "load"
	case Spill:
		return "spill"
	case Writeback:
		return "writeback"
	case Gather:
		return "gather"
	}
	return fmt.Sprintf("MemKind(%d)", uint8(k))
}

// MemRecord is one scheduled DMA transfer.
type MemRecord struct {
	Tile       tile.ID
	Kind       MemKind
	Bytes      int64
	Start, End int64
}

// Timeline tracks per-core and DMA availability and the schedule built
// so far. The zero value is not usable; construct with New.
type Timeline struct {
	npuFree []int64
	dmaFree int64
	ops     []OpRecord
	mems    []MemRecord
	faults  *fault.Plan
}

// New returns an empty timeline for the given core count.
func New(cores int) *Timeline {
	if cores <= 0 {
		panic(fmt.Sprintf("sim: cores must be positive, got %d", cores))
	}
	return &Timeline{npuFree: make([]int64, cores)}
}

// Reset returns t to an empty timeline for the given core count,
// reusing the per-core availability slice and truncating the record
// slices: their storage serves the next run, so records read through
// Ops or Mems are valid only until Reset.
func (t *Timeline) Reset(cores int) {
	if cores <= 0 {
		panic(fmt.Sprintf("sim: cores must be positive, got %d", cores))
	}
	if cap(t.npuFree) >= cores {
		t.npuFree = t.npuFree[:cores]
		for i := range t.npuFree {
			t.npuFree[i] = 0
		}
	} else {
		t.npuFree = make([]int64, cores)
	}
	t.dmaFree = 0
	t.ops = t.ops[:0]
	t.mems = t.mems[:0]
	t.faults = nil
}

// SetFaults injects a fault plan: dead cores refuse new ops from their
// death cycle (BestNPU skips them), flaky cores stretch ops starting in
// their windows, and DMA transfers starting in a derate window take
// proportionally longer. A nil plan restores nominal behavior.
func (t *Timeline) SetFaults(p *fault.Plan) {
	if p.Empty() {
		p = nil
	}
	t.faults = p
}

// Hold keeps every core and the DMA channel busy until at least cycle,
// so nothing scheduled from now on starts earlier. sched.Repair holds
// the machine at the fault cycle behind the prefix it re-executed.
func (t *Timeline) Hold(cycle int64) {
	for i := range t.npuFree {
		t.npuFree[i] = max(t.npuFree[i], cycle)
	}
	t.dmaFree = max(t.dmaFree, cycle)
}

// Cores returns the number of NPU cores.
func (t *Timeline) Cores() int { return len(t.npuFree) }

// DMAFree returns the cycle at which the DMA channel next becomes idle.
func (t *Timeline) DMAFree() int64 { return t.dmaFree }

// NPUFree returns the cycle at which core i next becomes idle.
func (t *Timeline) NPUFree(i int) int64 { return t.npuFree[i] }

// leastBusyNPU returns the core with the earliest availability.
func (t *Timeline) leastBusyNPU() int {
	best := 0
	for i := 1; i < len(t.npuFree); i++ {
		if t.npuFree[i] < t.npuFree[best] {
			best = i
		}
	}
	return best
}

// BestNPU returns the core on which an op ready at earliest and taking
// cycles (at nominal speed) would finish first, or -1 when every core
// is dead by the time the op could start. Ties go to the lowest index.
// Without a fault plan this is exactly leastBusyNPU, so fault-free
// schedules are unchanged.
func (t *Timeline) BestNPU(earliest, cycles int64) int {
	if t.faults == nil {
		return t.leastBusyNPU()
	}
	best, bestEnd := -1, int64(0)
	for i, free := range t.npuFree {
		start := free
		if earliest > start {
			start = earliest
		}
		if death, dead := t.faults.DeathCycle(i); dead && start >= death {
			continue
		}
		end := start + fault.Scale(cycles, t.faults.Slowdown(i, start))
		if best < 0 || end < bestEnd {
			best, bestEnd = i, end
		}
	}
	return best
}

// Transfer schedules a DMA transfer of the given latency that may not
// start before notBefore, and returns its record. Transfers serialize
// on the single DMA channel. A DMA derate in the fault plan stretches
// transfers that start inside its window.
func (t *Timeline) Transfer(id tile.ID, kind MemKind, bytes, latency, notBefore int64) MemRecord {
	start := t.dmaFree
	if notBefore > start {
		start = notBefore
	}
	if t.faults != nil {
		latency = fault.Scale(latency, t.faults.DMAFactor(start))
	}
	rec := MemRecord{Tile: id, Kind: kind, Bytes: bytes, Start: start, End: start + latency}
	t.dmaFree = rec.End
	t.mems = append(t.mems, rec)
	return rec
}

// Issue schedules op on core npu, not before earliest, for the given
// number of cycles, and returns its record. A flaky window in the fault
// plan stretches ops that start inside it; issuing on a core at or
// after its death cycle panics (callers pick cores with BestNPU).
func (t *Timeline) Issue(op, npu int, earliest, cycles int64) OpRecord {
	start := t.npuFree[npu]
	if earliest > start {
		start = earliest
	}
	if t.faults != nil {
		if death, dead := t.faults.DeathCycle(npu); dead && start >= death {
			panic(fmt.Sprintf("sim: op %d issued on core %d at cycle %d, dead since %d", op, npu, start, death))
		}
		cycles = fault.Scale(cycles, t.faults.Slowdown(npu, start))
	}
	rec := OpRecord{Op: op, NPU: npu, Start: start, End: start + cycles}
	t.npuFree[npu] = rec.End
	t.ops = append(t.ops, rec)
	return rec
}

// Makespan returns the cycle at which all scheduled work has finished.
func (t *Timeline) Makespan() int64 {
	max := t.dmaFree
	for _, f := range t.npuFree {
		if f > max {
			max = f
		}
	}
	return max
}

// Ops returns the compute records in issue order. The slice aliases
// internal state, which the next Reset truncates and the run after it
// overwrites: callers must not modify it, and copy what they keep.
func (t *Timeline) Ops() []OpRecord { return t.ops }

// Mems returns the DMA records in issue order, with Ops' aliasing rule.
func (t *Timeline) Mems() []MemRecord { return t.mems }
