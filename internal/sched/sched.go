// Package sched implements Flexer's out-of-order list scheduler
// (Algorithm 1 of the paper) together with the in-order issue mode used
// for the static loop-order baseline.
//
// The scheduler walks the tiled data-flow graph of a layer like a list
// instruction scheduler for a multi-issue machine in which every NPU is
// a functional unit. Each step it forms candidate sets of up to
// #cores ready operations, prunes sets with identical dataflow maps,
// scores the survivors with the configured priority function (memory
// benefit, then scratchpad utilization, then memory-operation latency),
// issues the winner, generates the required load/spill memory
// operations on the fly, and wakes up dependent operations.
package sched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/sim"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Priority selects the operation-set priority function (Table 2).
type Priority uint8

const (
	// PriorityDefault is Flexer's priority: maximize memory benefit,
	// then scratchpad utilization, then minimize memory-op latency.
	PriorityDefault Priority = iota
	// PriorityMinTransfer (Priority1) selects the set causing the
	// minimal amount of data movement.
	PriorityMinTransfer
	// PriorityMinSpill (Priority2) selects the set causing the lowest
	// amount of spilled data.
	PriorityMinSpill
	// PriorityChainDepth is an extension inspired by the atomic-
	// dataflow orchestration of Zheng et al. (HPCA'22), which the paper
	// contrasts with in related work: operations are prioritized by a
	// pre-defined rule — finish the deepest partial-sum chains first —
	// instead of inspecting the actual memory status. Useful as a
	// literature baseline for how much the memory-aware priority buys.
	PriorityChainDepth
)

// priorityNames holds the name of every Priority, indexed by value.
var priorityNames = [...]string{"default", "min-transfer", "min-spill", "chain-depth"}

// String names the priority function.
func (p Priority) String() string {
	if int(p) < len(priorityNames) {
		return priorityNames[p]
	}
	return fmt.Sprintf("Priority(%d)", uint8(p))
}

// PriorityNames lists the names ParsePriority accepts, in value order.
func PriorityNames() []string { return slices.Clone(priorityNames[:]) }

// ParsePriority is the inverse of Priority.String.
func ParsePriority(name string) (Priority, error) {
	if i := slices.Index(priorityNames[:], name); i >= 0 {
		return Priority(i), nil
	}
	return 0, fmt.Errorf("unknown priority %q (want %s)", name, strings.Join(priorityNames[:], ", "))
}

// Config controls one scheduling run.
type Config struct {
	// Arch is the hardware configuration.
	Arch arch.Config
	// Model supplies transfer latencies and must be the one the graph
	// was built with, which its op latencies and its Floor come from.
	// The zero Model is replaced by model.New(Arch).
	Model model.Model
	// Priority selects the set priority function.
	Priority Priority
	// MemPolicy selects the spill-victim policy.
	MemPolicy spm.Policy
	// DisableInPlace turns off in-place replacement (ablation).
	DisableInPlace bool
	// DisablePruning turns off dataflow-map set pruning (ablation).
	DisablePruning bool
	// MaxReadyWindow bounds the number of ready ops considered for set
	// formation (0 means DefaultMaxReadyWindow).
	MaxReadyWindow int
	// MaxCandidateSets bounds the sets evaluated per set width per step
	// (0 means DefaultMaxCandidateSets).
	MaxCandidateSets int
	// Order, when non-nil, switches the scheduler to in-order issue
	// following this op sequence (the static loop-order baseline). A loop
	// order is per grid: Schedule refuses one on a fused graph.
	Order []int
	// Hint, when non-nil, seeds the out-of-order exploration with a
	// preferred op sequence (a loop-order dataflow): ops earlier in the
	// hint win ties in window ranking and set selection, mirroring
	// Algorithm 1's GetSchedule(tiling, dataflow) which generates one
	// OoO schedule per dataflow. Ignored in in-order mode.
	Hint []int
	// FaultPlan, when non-nil and non-empty, injects machine faults
	// into the timeline: ops are steered away from dead cores, flaky
	// cores run slower inside their windows, and DMA transfers starting
	// inside a derate window take proportionally longer. The plan must
	// leave at least one core alive (Validate enforces this).
	FaultPlan *fault.Plan
	// Cutoff, when non-nil, is asked after every step whether no
	// schedule this run can still become is wanted; the run then ends
	// with ErrCutoff. Its arguments are admissible floors (see
	// engine.floors): no completion of the partial schedule has a
	// smaller makespan before the final write-backs — hence none a
	// smaller LatencyCycles — or smaller TrafficBytes, and neither
	// floor ever falls from one step to the next. Both count what the
	// run has done, what its graph still requires, and the reload of
	// every tile it has evicted with uses left. The search abandons
	// the runs its incumbent dominates this way, as soon as that is
	// provable and not when the partial makespan finally shows it.
	Cutoff func(cyclesFloor, bytesFloor int64) bool
	// CutoffCycles, when positive and Cutoff is nil, is short for a
	// Cutoff of cyclesFloor > CutoffCycles. The repository benchmark
	// (bench/) sets it; nothing else should.
	CutoffCycles int64
	// Keep, when non-nil, is asked once a run has issued every op and
	// flushed, with its final LatencyCycles and TrafficBytes, whether its
	// schedule is wanted; if not, the run ends with ErrNotKept before any
	// record is copied out. The search passes its strict keep this way.
	Keep func(cycles, bytes int64) bool
}

// Defaults for Config fields left zero.
const (
	DefaultMaxReadyWindow   = 16
	DefaultMaxCandidateSets = 96
)

func (c Config) withDefaults() Config {
	if c.Model == (model.Model{}) {
		c.Model = model.New(c.Arch)
	}
	if c.MaxReadyWindow <= 0 {
		c.MaxReadyWindow = DefaultMaxReadyWindow
	}
	if c.MaxCandidateSets <= 0 {
		c.MaxCandidateSets = DefaultMaxCandidateSets
	}
	if k := c.CutoffCycles; c.Cutoff == nil && k > 0 {
		c.Cutoff = func(cycles, _ int64) bool { return cycles > k }
	}
	return c
}

// KindStats aggregates DMA traffic for one tile kind.
type KindStats struct {
	LoadBytes      int64
	LoadCount      int
	SpillBytes     int64 // dirty partial sums written back to make room
	SpillCount     int
	WritebackBytes int64 // finished outputs written off-chip
	WritebackCount int
	// GatherBytes/GatherCount are on-chip SPM-to-SPM copies assembling
	// fused consumer inputs from resident producer outputs; they occupy
	// the DMA engine but are not off-chip traffic.
	GatherBytes int64
	GatherCount int
}

// TotalBytes returns all off-chip traffic of this kind (gathers are
// on-chip and excluded).
func (k KindStats) TotalBytes() int64 { return k.LoadBytes + k.SpillBytes + k.WritebackBytes }

// SetRecord describes one issued operation set, including which tile
// kinds were shared by two or more ops of the set (spatial reuse,
// Figure 11).
type SetRecord struct {
	Ops    []int
	Shared [tile.NumKinds]bool
}

// Result is a complete schedule with its cost breakdown.
type Result struct {
	// Factors is the tiling the schedule was generated for.
	Factors tile.Factors
	// LatencyCycles is the makespan including the final write-back of
	// all finished output tiles.
	LatencyCycles int64
	// Traffic components, summed over kinds.
	LoadBytes, SpillBytes, WritebackBytes int64
	// GatherBytes is the on-chip gather volume of a fused schedule
	// (0 for single-layer runs); not part of TrafficBytes.
	GatherBytes int64
	// PerKind breaks traffic down by tile kind.
	PerKind [tile.NumKinds]KindStats
	// Sets lists the issued operation sets in issue order.
	Sets []SetRecord
	// OpRecords and MemRecords are the scheduled timeline.
	OpRecords  []sim.OpRecord
	MemRecords []sim.MemRecord
	// SetsEvaluated counts candidate sets that spent one of their width's
	// MaxCandidateSets, placed or ruled out unplaced; SetsPruned those,
	// visited or not, whose dataflow map an earlier set of the step had.
	SetsEvaluated, SetsPruned int
	opOrderSame               bool  // see HintRepeats; unexported, so no snapshot or wire carries it
	setOps                    []int // the array every Sets[i].Ops is a window of, for ScheduleInto; nil when decoded
}

// HintRepeats reports whether the run hinted with the op order — the
// ops in index order — is provably this run again: r is an unhinted
// out-of-order Schedule each of whose steps formed the window that hint
// forms, the op-order prefix of the ready queue. Ranks are op indices
// in both runs and only the window reads the hint, so by induction over
// steps the hinted run makes the same sets, records and counts. Results
// of Repair, of an order or a hint, and decoded ones answer false.
func (r *Result) HintRepeats() bool { return r.opOrderSame }

// TrafficBytes returns the total off-chip traffic of the schedule.
func (r *Result) TrafficBytes() int64 { return r.LoadBytes + r.SpillBytes + r.WritebackBytes }

// Metric returns the paper's default schedule-ranking metric,
// latency x transferred data.
func (r *Result) Metric() float64 {
	return float64(r.LatencyCycles) * float64(r.TrafficBytes())
}

// engine holds the mutable scheduling state. Per-tile state is slices by
// the graph's tile numbers (dfg.Graph.Num), which the scratchpad binds.
type engine struct {
	cfg     Config
	gr      *dfg.Graph
	mem     *spm.SPM
	remain  []int32 // remaining accesses to a tile
	ready   []int
	pending []int // per-op count of unissued predecessors (chain + cross)
	opDone  []int64
	writeAt []int64 // completion time of the last write to a tile
	availAt []int64 // arrival time of the last load of a tile
	hasDRAM []bool  // tiles whose current contents exist off-chip (read by fused rules)
	tl      *sim.Timeline
	tot     Result    // the run's Factors and traffic so far; finish hands out a copy
	sets    []setMark // the run's sets so far, in issue order
	pos     int       // next index into cfg.Order (in-order mode)
	rank    []int     // tie-break rank per op (hint position, or op index)
	facts   stepFacts // the current step's operand table (OoO mode)
	seen    sigSet    // the current step's candidate signatures
	walk    setWalk   // the current step's candidate walk
	nEval   int
	nPruned int
	nDone   int
	// An unhinted OoO run each window of which so far was the op-order one.
	opOrderSame bool
	// What is left of the graph's Floor — ops to issue, mandatory loads
	// to make (loaded marks the ones made, by tile number), final
	// write-backs to pay — plus the reloads the run has come to owe
	// (reload marks the tiles evicted with uses left), for floors.
	owed   dfg.Floor
	loaded []bool
	reload []bool

	// Recycled scratch. The scheduler evaluates thousands of candidate
	// sets per run and search runs thousands of schedules per layer;
	// this free list and these buffers keep the steady state
	// allocation-free. All fields are nil-safe: reset of a zero engine
	// works, the buffers grow on first use.
	evalFree []*setEval      // retired set evaluations
	window   []int           // selectWindow result buffer
	kept     []windowOp      // selectWindow: the best ready ops so far, with their keys
	fresh    []int32         // placeOp: numbers of the tiles brought on-chip by the ops placed so far
	pinned   []tile.ID       // touch: gather sources pinned for one fused input
	refs     []tileRef       // apply: per-tile reference counts of one set
	marks    []bool          // validateOrder: ops seen; apply: spills already issued early for a DRAM fallback
	blocks   []spm.BlockInfo // flush: the scratchpad's blocks
}

// setMark is one issued set while the run lasts: its ops are the next n
// of the timeline's op records, which issue makes in the set's order.
type setMark struct {
	n      int
	shared [tile.NumKinds]bool
}

// zeroed returns s with length n and every element zero, reusing it.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// releaseEval recycles a retired set evaluation. nil is ignored, so
// callers can release an old best unconditionally.
func (e *engine) releaseEval(ev *setEval) {
	if ev != nil {
		e.evalFree = append(e.evalFree, ev)
	}
}

// getEval returns a zeroed set evaluation, recycled when possible. The
// ops/loads/spills buffers keep their capacity.
func (e *engine) getEval() *setEval {
	n := len(e.evalFree)
	if n == 0 {
		return &setEval{}
	}
	ev := e.evalFree[n-1]
	e.evalFree = e.evalFree[:n-1]
	*ev = setEval{ops: ev.ops[:0], loads: ev.loads[:0], spills: ev.spills[:0]}
	return ev
}

// enginePool recycles engines — and with them the scratchpad, the
// signature buffers, and the per-tile tables — across Schedule
// calls. The search schedules tens of runs per tiling and thousands per
// layer; per-worker reuse through the pool keeps the steady state out
// of the allocator.
var enginePool = sync.Pool{New: func() any { return &engine{} }}

var errNoProgress = errors.New("sched: no feasible operation set (tiling too large for SPM?)")

// ErrCutoff reports a run abandoned because Config.Cutoff said that
// nothing it could still become was wanted. It marks dominated work,
// not failure: callers skip the schedule but must not treat the tiling
// as infeasible.
var ErrCutoff = errors.New("sched: schedule abandoned by its cutoff")

// ErrNotKept reports a finished run that Config.Keep refused: a complete
// schedule its caller would have dropped, so none was handed out.
var ErrNotKept = errors.New("sched: finished schedule refused by its keep")

// errAllCoresDead is defensive: Config.FaultPlan validation guarantees
// a survivor, so BestNPU cannot run out of cores on a validated plan.
var errAllCoresDead = errors.New("sched: every core is dead before the remaining ops could start")

// checked returns c with its defaults filled in, or the reason no run
// can use it: an invalid machine, or a fault plan that machine cannot
// survive.
func (c Config) checked() (Config, error) {
	c = c.withDefaults()
	if err := c.Arch.Validate(); err != nil {
		return c, err
	}
	if !c.FaultPlan.Empty() {
		if err := c.FaultPlan.Validate(c.Arch.Cores); err != nil {
			return c, err
		}
	}
	return c, nil
}

// Schedule generates a schedule for the DFG under cfg and returns its
// cost breakdown.
func Schedule(gr *dfg.Graph, cfg Config) (*Result, error) { return ScheduleInto(nil, gr, cfg) }

// ScheduleInto is Schedule writing the run over dst, a new Result when
// nil, once it has finished and Config.Keep has accepted it. The run's
// records and sets go into dst's slices where those can hold them, else
// into new ones of exact size, so a written dst may keep more capacity
// than it uses; it shares no storage with the engine, and its sets' ops
// are windows of one array. Any error leaves dst untouched: ErrCutoff,
// ErrNotKept, an invalid config, order or hint, no feasible set, no live
// core. The search passes the schedule a run must beat as its keep and dst.
func ScheduleInto(dst *Result, gr *dfg.Graph, cfg Config) (*Result, error) {
	cfg, err := cfg.checked()
	if err != nil {
		return nil, err
	}
	e := enginePool.Get().(*engine)
	defer e.recycle()
	if err := e.start(gr, cfg); err != nil {
		return nil, err
	}
	return e.run(dst)
}

// start readies e to schedule gr under cfg from an empty machine at
// cycle 0: reset, then cfg's static order checked, or its hint checked
// and made the tie-break rank, or — neither — opOrderSame set until a
// window differs from the op-order hint's.
func (e *engine) start(gr *dfg.Graph, cfg Config) error {
	e.reset(gr, cfg)
	switch {
	case cfg.Order != nil:
		if gr.LastLayer() > 0 { // in-order issue knows chain predecessors only, not gathers
			return errors.New("sched: a static order is per grid: schedule a fused graph out of order")
		}
		return e.validateOrder(cfg.Order)
	case cfg.Hint != nil:
		if err := e.validateOrder(cfg.Hint); err != nil {
			return fmt.Errorf("sched: invalid hint: %w", err)
		}
		for pos, op := range cfg.Hint {
			e.rank[op] = pos
		}
	default:
		e.opOrderSame = true
	}
	return nil
}

// run is the scheduler's one loop: from whatever state the engine is in
// — empty after start, or mid-schedule after Repair's re-execution —
// form and commit sets until every op has issued, then flush and write
// the result over dst (see finish). It fails when nothing ready fits the
// scratchpad, when a fault plan leaves an op no core, or with ErrCutoff
// or ErrNotKept.
func (e *engine) run(dst *Result) (*Result, error) {
	for e.nDone < len(e.gr.Ops) {
		if err := e.step(); err != nil {
			return nil, err
		}
		if e.cfg.Cutoff != nil && e.cfg.Cutoff(e.floors()) {
			return nil, ErrCutoff
		}
	}
	return e.finish(dst)
}

// floors returns what Config.Cutoff is asked with: lower bounds on the
// makespan before flush and on the off-chip traffic of every schedule
// the run can still become. Cycles: the partial makespan; the cores'
// busy time so far plus the ops still to issue, spread evenly over all
// cores; and the DMA channel's busy time plus the loads still to make,
// which all precede the last op — the mandatory ones, and the reload of
// every tile evicted with uses left (owe). Bytes: what has moved, plus
// those loads, plus the final write-backs still owed — TrafficBytes
// once the run has flushed. A fault plan only stretches ops and
// transfers and takes cores away, so nominal latencies stay floors.
func (e *engine) floors() (cycles, bytes int64) {
	n := e.tl.Cores()
	busy := e.owed.OpCycles
	for i := 0; i < n; i++ {
		busy += e.tl.NPUFree(i)
	}
	spread := (busy + int64(n) - 1) / int64(n)
	cycles = max(e.tl.Makespan(), spread, e.tl.DMAFree()+e.owed.LoadCycles)
	return cycles, e.tot.TrafficBytes() + e.owed.LoadBytes + e.owed.WritebackBytes
}

// step forms the next operation set and commits it.
func (e *engine) step() error {
	ev := e.nextSet()
	if ev == nil {
		return errNoProgress
	}
	return e.apply(ev)
}

// nextSet forms the next operation set — following the static order
// when cfg has one, out of order otherwise — or nil when not even one
// op can be made resident.
func (e *engine) nextSet() *setEval {
	e.mem.UnpinAll()
	if e.cfg.Order != nil {
		return e.nextSetInOrder()
	}
	return e.nextSetOoO()
}

// finish writes back what is still dirty and, unless Config.Keep refuses
// the run, writes it over r, a new Result when nil: the run's totals, and
// copies of its records and sets in r's slices where they are long
// enough and in new ones of exact size where not, every set's ops a
// window of one array. The engine keeps its own storage for the next
// run, so nothing a Result holds is shared with it.
func (e *engine) finish(r *Result) (*Result, error) {
	e.flush()
	if e.cfg.Keep != nil && !e.cfg.Keep(e.tl.Makespan(), e.tot.TrafficBytes()) {
		return nil, ErrNotKept
	}
	if r == nil {
		r = new(Result)
	}
	old := *r
	*r = e.tot
	r.LatencyCycles = e.tl.Makespan()
	r.SetsEvaluated, r.SetsPruned, r.opOrderSame = e.nEval, e.nPruned, e.opOrderSame
	r.OpRecords = zeroed(old.OpRecords, len(e.tl.Ops()))
	copy(r.OpRecords, e.tl.Ops())
	r.MemRecords = zeroed(old.MemRecords, len(e.tl.Mems()))
	copy(r.MemRecords, e.tl.Mems())
	r.setOps = zeroed(old.setOps, len(r.OpRecords))
	for i, rec := range r.OpRecords {
		r.setOps[i] = rec.Op
	}
	r.Sets = zeroed(old.Sets, len(e.sets))
	ops := r.setOps
	for i, s := range e.sets {
		r.Sets[i] = SetRecord{Ops: ops[:s.n:s.n], Shared: s.shared}
		ops = ops[s.n:]
	}
	return r, nil
}

func (e *engine) validateOrder(order []int) error {
	gr := e.gr
	if len(order) != len(gr.Ops) {
		return fmt.Errorf("sched: order has %d ops, graph has %d", len(order), len(gr.Ops))
	}
	e.marks = zeroed(e.marks, len(gr.Ops))
	seen := e.marks
	for _, op := range order {
		if op < 0 || op >= len(gr.Ops) {
			return fmt.Errorf("sched: order references op %d outside graph", op)
		}
		if seen[op] {
			return fmt.Errorf("sched: order lists op %d twice", op)
		}
		if p := gr.Pred(op); p >= 0 && !seen[p] {
			return fmt.Errorf("sched: order schedules op %d before its predecessor %d", op, p)
		}
		seen[op] = true
	}
	return nil
}

// reset returns a (possibly recycled) engine to the state before the
// first step of a run: nothing issued, the scratchpad empty, the
// timeline idle at cycle 0 with cfg's fault plan injected, ops ranked
// by index. All state, the timeline's records included, is reused in
// place, at a cost linear in this graph's size; only finish allocates.
func (e *engine) reset(gr *dfg.Graph, cfg Config) {
	e.cfg = cfg
	e.gr = gr
	if e.mem == nil {
		e.mem = spm.New(cfg.Arch.SPMBytes, cfg.MemPolicy)
	} else {
		e.mem.Reset(cfg.Arch.SPMBytes, cfg.MemPolicy)
	}
	e.mem.SetInPlace(!cfg.DisableInPlace)
	e.mem.Bind(gr)
	e.remain = gr.AppendUses(e.remain[:0])
	e.writeAt = zeroed(e.writeAt, gr.NumTiles())
	e.availAt = zeroed(e.availAt, gr.NumTiles())
	e.hasDRAM = zeroed(e.hasDRAM, gr.NumTiles())
	// Readiness is in-degree based: ops with no unissued predecessor
	// (chain or cross-layer) are ready. For single-layer graphs this is
	// exactly the IC == 0 set in canonical order, bit-identical to the
	// layerwise scheduler.
	e.pending = gr.PendingInto(e.pending)
	e.ready = e.ready[:0]
	for i, p := range e.pending {
		if p == 0 {
			e.ready = append(e.ready, i)
		}
	}
	e.opDone = zeroed(e.opDone, len(gr.Ops))
	if e.tl == nil {
		e.tl = sim.New(cfg.Arch.Cores)
	} else {
		e.tl.Reset(cfg.Arch.Cores)
	}
	e.tl.SetFaults(cfg.FaultPlan)
	e.tot = Result{Factors: gr.Grid.F}
	e.sets = e.sets[:0]
	e.rank = zeroed(e.rank, len(gr.Ops))
	for i := range e.rank {
		e.rank[i] = i
	}
	e.pos = 0
	e.nEval, e.nPruned, e.nDone, e.opOrderSame = 0, 0, 0, false
	e.owed = gr.Floor()
	e.loaded = zeroed(e.loaded, gr.NumTiles())
	e.reload = zeroed(e.reload, gr.NumTiles())
}

// recycle returns the engine to the pool, dropping the references that
// would otherwise pin the caller's graph in the pool (the
// scratchpad's, to the graph as its numbering, by emptying it).
func (e *engine) recycle() {
	e.mem.Reset(e.mem.Capacity(), e.cfg.MemPolicy)
	e.gr = nil
	e.cfg = Config{}
	enginePool.Put(e)
}

// owe books (owing) the reload of a tile evicted with uses left, which no
// completion of the run avoids, or takes it off again at the tile's
// next load: its bytes and nominal transfer time; for a fused consumer
// input, which may come back by gather, the cheaper of the two ways and
// no bytes; for a fused producer output nothing — what it has left may
// all be its consumers' holds, which no load serves.
func (e *engine) owe(id tile.ID, size int64, owing bool) {
	n := e.gr.Num(id)
	if e.reload[n] == owing || id.Kind == tile.Out && int(id.L) < e.gr.LastLayer() {
		return
	}
	e.reload[n] = owing
	bytes, cycles := size, e.cfg.Model.TransferCycles(size)
	if id.Kind == tile.In && id.L > 0 {
		bytes, cycles = 0, min(cycles, e.cfg.Model.GatherCycles(size))
	}
	if !owing {
		bytes, cycles = -bytes, -cycles
	}
	e.owed.LoadBytes += bytes
	e.owed.LoadCycles += cycles
}

// tileRef counts one set's references to a distinct operand tile.
type tileRef struct {
	kind tile.Kind
	num  int32
	n    int
}

// apply commits the chosen set: places it in the scratchpad for real,
// schedules its memory operations and then its compute ops on the
// timeline, and retires the ops. Set formation rolled its placement
// back, so apply repeats it; placement is deterministic and nothing it
// reads has changed since, so the loads and spills recorded in ev come
// out the same — and whatever they are, the timeline is built from the
// ones that actually happened. It consumes ev. It fails when a fault
// plan has killed every core an op could run on, and when the set does
// not fit, which only a set Repair re-executes from a schedule can.
func (e *engine) apply(ev *setEval) error {
	defer e.releaseEval(ev)
	*ev = setEval{ops: ev.ops, loads: ev.loads[:0], spills: ev.spills[:0]}
	if !e.place(ev) {
		return errNoProgress
	}
	// Every eviction before any load: one op of a set may evict what a
	// later op of it reloads. (A tile that was resident owed nothing.)
	for _, sp := range ev.spills {
		e.owe(sp.ID, sp.Size, sp.RemainUses > 0)
	}
	memEnd, err := e.memOps(ev)
	if err != nil {
		return err
	}
	if err := e.issue(ev.ops, memEnd); err != nil {
		return err
	}
	e.mem.UnpinAll()
	return nil
}

// memOps schedules the memory operations of a placed set on the shared
// DMA channel and returns when the last load arrives. Loads are issued
// first and gate the set's compute; write-backs of evicted dirty tiles
// follow — they occupy DMA bandwidth (delaying later sets' loads) and
// extend the makespan, but hardware double-buffers the vacated space,
// so they do not stall this set's compute. Ordering loads first keeps
// the DMA channel from idling on a write-back whose producing op has
// not finished yet. The exception is a partial sum that one op of the
// set evicts dirty and a later one reloads: its spill is pulled ahead
// of the reload, which would otherwise read an older off-chip copy.
//
// Fused runs add two wrinkles. A gather load assembles a consumer input
// tile from resident producer outputs: it starts no earlier than the
// last covering write and moves no off-chip bytes. A DRAM load of a
// consumer input instead requires every covering producer tile to exist
// off-chip first; producers that do not are flushed now (still
// resident) or have their eviction's spill pulled ahead of this load
// (evicted by this very set), so the round-trip reads data that has
// actually been written.
func (e *engine) memOps(ev *setEval) (int64, error) {
	var memEnd int64
	e.marks = zeroed(e.marks, len(ev.spills))
	for _, ld := range ev.loads {
		var rec sim.MemRecord
		if ld.gather {
			var notBefore int64
			for _, ot := range e.gr.Covering(ld.id) {
				notBefore = max(notBefore, e.writeAt[e.gr.Num(ot)])
			}
			rec = e.tl.Transfer(ld.id, sim.Gather, ld.size, e.cfg.Model.GatherCycles(ld.size), notBefore)
		} else {
			if ld.id.Kind == tile.In && ld.id.L > 0 {
				if err := e.ensureDRAM(ld.id, ev); err != nil {
					return 0, err
				}
			}
			if ld.id.Kind == tile.Out {
				e.pullSpill(ld.id, ev) // the reload reads the copy that spill writes
			}
			rec = e.tl.Transfer(ld.id, sim.Load, ld.size, e.cfg.Model.TransferCycles(ld.size), 0)
		}
		e.account(rec)
		e.availAt[ld.n] = rec.End
		memEnd = max(memEnd, rec.End)
	}
	for i, sp := range ev.spills {
		if !sp.Dirty || e.marks[i] {
			continue // clean evictions drop data without traffic
		}
		if sp.ID.Kind == tile.Out && int(sp.ID.L) < e.gr.LastLayer() && sp.RemainUses == 0 {
			continue // dead intermediate output: dropped without ever touching DRAM
		}
		kind := sim.Spill
		if sp.ID.Kind == tile.Out && sp.RemainUses == 0 {
			kind = sim.Writeback // finished output evicted: its one required write
		}
		lat := e.cfg.Model.TransferCycles(sp.Size)
		rec := e.tl.Transfer(sp.ID, kind, sp.Size, lat, e.writeAt[e.gr.Num(sp.ID)])
		e.account(rec)
		e.hasDRAM[e.gr.Num(sp.ID)] = true
	}
	return memEnd, nil
}

// issue puts the ops of a placed set on the timeline, one per core, no
// earlier than the set's loads (memEnd) and their chain predecessors,
// retires them, and records the set.
func (e *engine) issue(ops []int, memEnd int64) error {
	set := setMark{n: len(ops)}
	e.refs = e.refs[:0]
	addRef := func(kind tile.Kind, num int32) {
		for i := range e.refs {
			if e.refs[i].num == num {
				e.refs[i].n++
				return
			}
		}
		e.refs = append(e.refs, tileRef{kind: kind, num: num, n: 1})
	}
	for _, opIdx := range ops {
		op, ns := &e.gr.Ops[opIdx], e.gr.Operands(opIdx)
		earliest := memEnd
		if p := e.gr.Pred(opIdx); p >= 0 && e.opDone[p] > earliest {
			earliest = e.opDone[p]
		}
		// An operand reused from an earlier set may still be in flight
		// on the DMA channel: compute cannot start before it arrives.
		earliest = max(earliest, e.availAt[ns[0]], e.availAt[ns[1]])
		if op.ReadsPsum {
			earliest = max(earliest, e.availAt[ns[2]])
		}
		npu := e.tl.BestNPU(earliest, op.Cycles)
		if npu < 0 {
			return errAllCoresDead
		}
		e.retire(e.tl.Issue(opIdx, npu, earliest, op.Cycles))
		e.mem.SetDirtyNum(ns[2], true)
		addRef(tile.In, ns[0])
		addRef(tile.Wt, ns[1])
		if op.ReadsPsum {
			addRef(tile.Out, ns[2])
		}
	}
	for _, r := range e.refs {
		if r.n >= 2 {
			set.shared[r.kind] = true
		}
	}
	e.sets = append(e.sets, set)

	// Remove the issued ops from the ready list (a set holds at most
	// #cores ops, so the scan is cheap).
	e.ready = slices.DeleteFunc(e.ready, func(op int) bool { return slices.Contains(ops, op) })
	return nil
}

// retire is the bookkeeping of one op issue has just put on the
// timeline as rec says: its finish and write times, its operands' uses,
// its successors' readiness.
func (e *engine) retire(rec sim.OpRecord) {
	op, ns := &e.gr.Ops[rec.Op], e.gr.Operands(rec.Op)
	in, wt, out := ns[0], ns[1], ns[2]
	e.opDone[rec.Op] = rec.End
	e.writeAt[out] = rec.End
	// The write makes any off-chip copy of the tile stale (a mid-chain
	// spill leaves a partial sum in DRAM).
	e.hasDRAM[out] = false
	e.remain[in]--
	e.remain[wt]--
	e.remain[out]--
	if op.In.L > 0 && e.remain[in] == 0 {
		// The consumer input tile is exhausted: release its hold on
		// the producer outputs covering it. Until this point each
		// covering tile stays live (resident or backed by DRAM), so
		// a reload of the input always has a data source.
		for _, ot := range e.gr.Covering(op.In) {
			e.remain[e.gr.Num(ot)]--
		}
	}
	if succ := e.gr.Succ(rec.Op); succ >= 0 {
		e.wake(succ)
	}
	for _, cs := range e.gr.CrossSuccs(rec.Op) {
		e.wake(cs)
	}
	e.nDone++
	e.owed.OpCycles -= op.Cycles
}

// wake records that one predecessor of op j has issued; j becomes ready
// once its last one does.
func (e *engine) wake(j int) {
	e.pending[j]--
	if e.pending[j] == 0 {
		e.ready = append(e.ready, j)
	}
}

// ensureDRAM makes every producer tile covering the fused consumer
// input id exist off-chip before id is loaded from DRAM. Producers
// still resident are flushed now (they stay resident, now clean);
// producers evicted dirty by the current set have their spill pulled
// ahead of the load. Any other case breaks the liveness invariant and
// is an internal error.
func (e *engine) ensureDRAM(id tile.ID, ev *setEval) error {
	for _, ot := range e.gr.Covering(id) {
		n := e.gr.Num(ot)
		if e.hasDRAM[n] {
			continue
		}
		if e.mem.Has(ot) {
			size := e.gr.Size(ot)
			rec := e.tl.Transfer(ot, sim.Spill, size, e.cfg.Model.TransferCycles(size), e.writeAt[n])
			e.account(rec)
			e.mem.SetDirty(ot, false)
			e.hasDRAM[n] = true
			continue
		}
		if !e.pullSpill(ot, ev) || !e.hasDRAM[n] {
			return fmt.Errorf("sched: internal: producer %v has no resident or off-chip copy for consumer %v", ot, id)
		}
	}
	return nil
}

// pullSpill issues the current set's first eviction of id not yet
// issued ahead of the load memOps is scheduling — a spill when the
// evicted copy was dirty — and marks it in e.marks so the main spill
// pass skips it. It reports whether the set evicted id at all.
func (e *engine) pullSpill(id tile.ID, ev *setEval) bool {
	for i := range ev.spills {
		sp := &ev.spills[i]
		if sp.ID != id || e.marks[i] {
			continue
		}
		if sp.Dirty {
			n := e.gr.Num(id)
			rec := e.tl.Transfer(id, sim.Spill, sp.Size, e.cfg.Model.TransferCycles(sp.Size), e.writeAt[n])
			e.account(rec)
			e.hasDRAM[n] = true
		}
		e.marks[i] = true
		return true
	}
	return false
}

// account records one DMA transfer in the per-kind statistics, and
// takes a mandatory load's first occurrence, an owed reload or a final
// write-back off what the run still owes.
func (e *engine) account(rec sim.MemRecord) {
	ks := &e.tot.PerKind[rec.Tile.Kind]
	switch rec.Kind {
	case sim.Load:
		ks.LoadBytes += rec.Bytes
		ks.LoadCount++
		e.tot.LoadBytes += rec.Bytes
		if n := e.gr.Num(rec.Tile); !e.loaded[n] && (rec.Tile.Kind == tile.Wt || rec.Tile.Kind == tile.In && rec.Tile.L == 0) {
			e.loaded[n] = true
			e.owed.LoadBytes -= rec.Bytes
			e.owed.LoadCycles -= e.cfg.Model.TransferCycles(rec.Bytes)
		}
		e.owe(rec.Tile, rec.Bytes, false)
	case sim.Spill:
		ks.SpillBytes += rec.Bytes
		ks.SpillCount++
		e.tot.SpillBytes += rec.Bytes
	case sim.Writeback:
		ks.WritebackBytes += rec.Bytes
		ks.WritebackCount++
		e.tot.WritebackBytes += rec.Bytes
		if rec.Tile.Kind == tile.Out && int(rec.Tile.L) == e.gr.LastLayer() {
			e.owed.WritebackBytes -= rec.Bytes
		}
	case sim.Gather:
		ks.GatherBytes += rec.Bytes
		ks.GatherCount++
		e.tot.GatherBytes += rec.Bytes
		e.owe(rec.Tile, rec.Bytes, false)
	}
}

// flush writes back every dirty tile remaining in the scratchpad; after
// all chains complete these are the finished output tiles. In a fused
// run, intermediate-layer outputs whose uses are exhausted never need
// to reach DRAM — their consumers have read them on-chip — so only the
// last layer's outputs (and any still-live tile, defensively) flush.
func (e *engine) flush() {
	e.blocks = e.mem.AppendBlocks(e.blocks[:0])
	for _, b := range e.blocks {
		if !b.Dirty {
			continue
		}
		n := e.gr.Num(b.ID)
		if b.ID.Kind == tile.Out && int(b.ID.L) < e.gr.LastLayer() && e.remain[n] == 0 {
			continue
		}
		lat := e.cfg.Model.TransferCycles(b.Size)
		rec := e.tl.Transfer(b.ID, sim.Writeback, b.Size, lat, e.writeAt[n])
		e.account(rec)
		e.mem.SetDirtyNum(int32(n), false)
	}
}
