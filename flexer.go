// Package flexer is the public API of the Flexer reproduction: an
// out-of-order (OoO) scheduler for tiled DNN layers on multi-NPU
// accelerators with a shared on-chip scratchpad, after
//
//	Hyemi Min, Jungyoon Kwon, Bernhard Egger.
//	"Flexer: Out-of-Order Scheduling for Multi-NPUs", CGO 2023.
//
// The package exposes three levels of use:
//
//   - ScheduleLayer / ScheduleStatic generate one schedule for a given
//     layer and tiling (out-of-order, or a fixed loop order).
//   - SearchLayer runs the paper's Algorithm 1 outer loop: it explores
//     tilings and dataflows and returns the best OoO schedule next to
//     the best static loop-order baseline.
//   - SearchNetwork does the same for every layer of a network and
//     aggregates end-to-end results.
//
// Hardware is described by an Arch (use Preset for the paper's
// arch1..arch8 of Table 1); workloads by Conv layers or the built-in
// Network tables (VGG16, ResNet-50, SqueezeNet, YOLOv2).
package flexer

import (
	"context"
	"io"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/dfg"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
	"github.com/flexer-sched/flexer/internal/trace"
)

// Core types re-exported from the implementation packages.
type (
	// Arch is a multi-NPU hardware configuration.
	Arch = arch.Config
	// Conv describes a convolution layer shape.
	Conv = layer.Conv
	// Network is a named sequence of convolution layers.
	Network = nets.Network
	// Factors are the tile extents of one tiling.
	Factors = tile.Factors
	// Schedule is a generated schedule with its cost breakdown.
	Schedule = sched.Result
	// Dataflow is a static loop ordering for the baseline scheduler.
	Dataflow = loop.Dataflow
	// Options configure a search.
	Options = search.Options
	// Budget bounds search effort.
	Budget = search.Budget
	// Metric ranks schedules (latency^a x traffic^b).
	Metric = search.Metric
	// LayerResult is the outcome of a per-layer search.
	LayerResult = search.LayerResult
	// NetworkResult aggregates per-layer results end to end.
	NetworkResult = search.NetworkResult
	// Candidate is the outcome of one tiling within a search.
	Candidate = search.Candidate
	// Cache memoizes layer searches across calls.
	Cache = search.Cache
	// CacheStats is a snapshot of cache hit/miss/eviction counters.
	CacheStats = search.CacheStats
	// Priority selects the operation-set priority function.
	Priority = sched.Priority
	// MemPolicy selects the scratchpad spill policy.
	MemPolicy = spm.Policy
	// FaultPlan describes machine degradation (core deaths, flaky
	// windows, DMA derates) for degraded-mode evaluation.
	FaultPlan = fault.Plan
)

// Priority functions (Table 2).
const (
	// PriorityDefault: memory benefit, then utilization, then memory-op
	// latency.
	PriorityDefault = sched.PriorityDefault
	// PriorityMinTransfer (Priority1): minimal data movement.
	PriorityMinTransfer = sched.PriorityMinTransfer
	// PriorityMinSpill (Priority2): minimal spilled data.
	PriorityMinSpill = sched.PriorityMinSpill
	// PriorityChainDepth: fixed deepest-chain-first rule (extension,
	// after the atomic-dataflow style of Zheng et al.).
	PriorityChainDepth = sched.PriorityChainDepth
)

// Memory-management policies (Table 2).
const (
	// MemPolicyFlexer is Algorithm 2 victim selection.
	MemPolicyFlexer = spm.PolicyFlexer
	// MemPolicyFirstFit spills the first block large enough (MemPolicy1).
	MemPolicyFirstFit = spm.PolicyFirstFit
	// MemPolicySmallestFirst spills smallest blocks first (MemPolicy2).
	MemPolicySmallestFirst = spm.PolicySmallestFirst
)

// ParsePriority, ParseMemPolicy, ParseMetric and BudgetByName turn an
// option name into its value; the matching *Names functions list the
// names each accepts. Commands and services take option names from
// here, so no two of them can disagree about what exists.
func ParsePriority(name string) (Priority, error)   { return sched.ParsePriority(name) }
func ParseMemPolicy(name string) (MemPolicy, error) { return spm.ParsePolicy(name) }
func ParseMetric(name string) (Metric, error)       { return search.ParseMetric(name) }
func BudgetByName(name string) (Budget, error)      { return search.BudgetByName(name) }
func PriorityNames() []string                       { return sched.PriorityNames() }
func MemPolicyNames() []string                      { return spm.PolicyNames() }
func MetricNames() []string                         { return search.MetricNames() }
func BudgetNames() []string                         { return search.BudgetNames() }

// Preset returns one of the eight Table 1 hardware configurations
// ("arch1".."arch8").
func Preset(name string) (Arch, error) { return arch.Preset(name) }

// Presets returns all Table 1 configurations.
func Presets() []Arch { return arch.Presets() }

// NewArch builds a custom configuration with the default 32x32 PE
// geometry at 1 GHz.
func NewArch(name string, cores int, spmBytes int64, bwBytesPerCycle int) Arch {
	return arch.New(name, cores, spmBytes, bwBytesPerCycle)
}

// NewConv returns a square convolution layer with stride 1, same
// padding and fp16 elements; adjust fields or use WithStride/WithPad
// for other shapes.
func NewConv(name string, inH, inW, inC, outC, ker int) Conv {
	return layer.NewConv(name, inH, inW, inC, outC, ker)
}

// NetworkByName returns a built-in network table ("vgg16", "resnet50",
// "squeezenet", "yolov2").
func NetworkByName(name string) (Network, error) { return nets.ByName(name) }

// Networks returns all built-in network tables.
func Networks() []Network { return nets.All() }

// Dataflows returns the six canonical stationary loop orders.
func Dataflows() []Dataflow { return loop.Canonical() }

// AllDataflows returns all 24 loop permutations for exhaustive baseline
// search.
func AllDataflows() []Dataflow { return loop.All() }

// DefaultBudget is a broad search budget for CLI-style use;
// QuickBudget is a small budget for tests and benchmarks.
func DefaultBudget() Budget { return search.DefaultBudget() }

// QuickBudget returns a small search budget suited to tests and
// benchmarks.
func QuickBudget() Budget { return search.QuickBudget() }

// MetricDefault is the paper's ranking metric, latency x traffic.
func MetricDefault() Metric { return search.MetricDefault() }

// MetricMinTransfer weights traffic far above latency (Figure 9b).
func MetricMinTransfer() Metric { return search.MetricMinTransfer() }

// NewCache returns an empty layer-search cache bounded to the default
// capacity.
func NewCache() *Cache { return search.NewCache() }

// NewCacheSized returns an empty layer-search cache holding at most
// capacity results (<= 0 means unbounded).
func NewCacheSized(capacity int) *Cache { return search.NewCacheSized(capacity) }

// Tilings enumerates the feasible tilings of a layer on an arch under
// the given budget: the ones SearchLayer schedules.
func Tilings(l Conv, a Arch, b Budget) []Factors { return search.Tilings(l, a, b) }

// ScheduleLayer generates an out-of-order schedule for one layer under
// one tiling.
func ScheduleLayer(l Conv, f Factors, opts Options) (*Schedule, error) {
	return schedule(l, f, opts, nil)
}

// ScheduleStatic generates the fixed loop-order schedule of df for one
// layer under one tiling.
func ScheduleStatic(l Conv, f Factors, df Dataflow, opts Options) (*Schedule, error) {
	return schedule(l, f, opts, &df)
}

// schedule builds the layer's graph under tiling f and schedules it:
// out of order, or in df's loop order when one is given.
func schedule(l Conv, f Factors, opts Options, df *Dataflow) (*Schedule, error) {
	grid, err := tile.NewGrid(l, f)
	if err != nil {
		return nil, err
	}
	m := model.New(opts.Arch)
	graph := dfg.Build(grid, m)
	cfg := opts.SchedConfig(m)
	if df != nil {
		cfg.Order = loop.Order(graph, *df)
	}
	return sched.Schedule(graph, cfg)
}

// SearchLayer explores tilings and dataflows for one layer and returns
// the best out-of-order and static schedules.
func SearchLayer(l Conv, opts Options) (*LayerResult, error) {
	return search.SearchLayer(l, opts)
}

// SearchLayerCtx is SearchLayer with cancellation: the search aborts
// at its next tiling or dataflow boundary once ctx is done.
func SearchLayerCtx(ctx context.Context, l Conv, opts Options) (*LayerResult, error) {
	return search.SearchLayerCtx(ctx, l, opts)
}

// SearchNetwork searches every layer of a network and aggregates
// end-to-end latency and traffic for both schedulers.
func SearchNetwork(n Network, opts Options) (*NetworkResult, error) {
	return search.SearchNetwork(n, opts)
}

// SearchNetworkCtx is SearchNetwork with cancellation.
func SearchNetworkCtx(ctx context.Context, n Network, opts Options) (*NetworkResult, error) {
	return search.SearchNetworkCtx(ctx, n, opts)
}

// WriteJSON exports a schedule as indented JSON; full includes the
// per-op and per-DMA timelines.
func WriteJSON(w io.Writer, s *Schedule, full bool) error {
	return trace.WriteJSON(w, s, full)
}

// WriteCSV exports a schedule's timeline as CSV.
func WriteCSV(w io.Writer, s *Schedule) error { return trace.WriteCSV(w, s) }

// WriteGantt renders a textual Gantt chart of a schedule: one row per
// NPU core plus the DMA channel, bucketed to the given width.
func WriteGantt(w io.Writer, s *Schedule, width int) error {
	return trace.WriteGantt(w, s, width)
}

// WriteGanttFaults is WriteGantt with the fault plan's disturbances
// overlaid ('X' after a core's death, '~' over idle degraded windows).
func WriteGanttFaults(w io.Writer, s *Schedule, width int, plan *FaultPlan) error {
	return trace.WriteGanttFaults(w, s, width, plan)
}

// ParseFaultPlan parses a compact fault-plan spec: comma-separated
// "core<i>@<cycle>" (core i dies at cycle), "flaky<i>@<from>-<to>x<s>"
// (core i is s-times slower in [from,to)) and "dma@<from>[-<to>]x<f>"
// (DMA transfers starting in the window take f-times longer; omitted
// <to> means forever). Example: "core1@5000,dma@5000x1.5".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// RandomFaultPlan generates a deterministic pseudo-random survivable
// fault plan for a machine with the given core count, with fault cycles
// inside [0, horizon).
func RandomFaultPlan(seed int64, cores int, horizon int64) *FaultPlan {
	return fault.Random(seed, cores, horizon)
}

// RepairSchedule re-plans an existing schedule around a fault plan:
// the issued sets whose work all started before the first disruption
// are kept, everything else is rescheduled on the surviving resources
// from the fault cycle. s must have been built for l under opts. See
// sched.Repair for the fault model.
func RepairSchedule(l Conv, s *Schedule, plan *FaultPlan, opts Options) (*Schedule, error) {
	return search.RepairResult(l, s, plan, opts)
}
