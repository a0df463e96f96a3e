package experiments

import (
	"fmt"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/spm"
)

// versus is best OoO against best static: what every comparison row
// carries.
type versus struct {
	OoOCycles    int64 `json:"ooo_cycles"`
	OoOBytes     int64 `json:"ooo_bytes"`
	StaticCycles int64 `json:"static_cycles"`
	StaticBytes  int64 `json:"static_bytes"`
	Speedup      Ratio `json:"speedup"`   // static cycles / OoO cycles
	Reduction    Ratio `json:"reduction"` // static bytes / OoO bytes
}

func versusOf(oooCycles, oooBytes, staticCycles, staticBytes int64) versus {
	return versus{oooCycles, oooBytes, staticCycles, staticBytes,
		ratio(staticCycles, oooCycles), ratio(staticBytes, oooBytes)}
}

func versusLayer(lr *search.LayerResult) versus {
	return versusOf(lr.BestOoO.LatencyCycles, lr.BestOoO.TrafficBytes(),
		lr.BestStatic.LatencyCycles, lr.BestStatic.TrafficBytes())
}

// effort counts search work. Pruned, Aborted and Sets depend on what
// each tiling was pruned against, so they repeat only at one worker.
type effort struct {
	Enumerated int `json:"enumerated"` // tilings enumerated
	Pruned     int `json:"pruned"`     // tilings skipped by dominance pruning
	Aborted    int `json:"aborted"`    // schedule runs abandoned by the cutoff
	Sets       int `json:"sets"`       // candidate sets evaluated by the completed OoO runs
}

func (e *effort) add(lr *search.LayerResult) {
	e.Enumerated += lr.CandidatesEnumerated
	e.Pruned += lr.CandidatesPruned
	e.Aborted += lr.SchedulesAborted
	for _, c := range lr.Candidates {
		e.Sets += c.OoO.SetsEvaluated
	}
}

// cell is one network on one machine — the unit of Figure 8, and what
// Figure 9a, Figure 9c, the fusion rows and the guard are made of.
type cell struct {
	Network string `json:"network"`
	Arch    string `json:"arch"`
	Layers  int    `json:"layers"`
	versus
	// Layers whose best OoO schedule is worse than the best static one
	// on the search metric, on cycles, on bytes. Every static order is
	// a point of the OoO space, so LoseScore should be 0 (ROADMAP item
	// 2); here it is only counted.
	LoseScore  int `json:"lose_score"`
	LoseCycles int `json:"lose_cycles"`
	LoseBytes  int `json:"lose_bytes"`
	effort
}

// measureNetwork searches one network on one machine at the config's
// scale and budget and totals it.
func (c Config) measureNetwork(netName, archName string, fuseDepth int) (cell, *search.NetworkResult, error) {
	nr, err := c.searchNetwork(netName, archName, func(o *search.Options) { o.FuseDepth = fuseDepth })
	if err != nil {
		return cell{}, nil, err
	}
	metric := search.MetricDefault() // what the layers were searched under
	oooCycles, staticCycles, oooBytes, staticBytes := nr.Totals()
	row := cell{Network: netName, Arch: archName, Layers: len(nr.Layers),
		versus: versusOf(oooCycles, oooBytes, staticCycles, staticBytes)}
	for _, lr := range nr.Layers {
		v := versusLayer(lr)
		if metric.Score(v.OoOCycles, v.OoOBytes) > metric.Score(v.StaticCycles, v.StaticBytes) {
			row.LoseScore++
		}
		if v.OoOCycles > v.StaticCycles {
			row.LoseCycles++
		}
		if v.OoOBytes > v.StaticBytes {
			row.LoseBytes++
		}
		row.effort.add(lr)
	}
	return row, nr, nil
}

// fig8 reproduces Figure 8: the four networks on the eight
// architectures, OoO versus best static loop order.
func fig8(c Config) ([]cell, error) {
	var rows []cell
	for _, netName := range []string{"vgg16", "resnet50", "squeezenet", "yolov2"} {
		for _, archName := range arch.PresetNames() {
			row, _, err := c.measureNetwork(netName, archName, 0)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

type layerRow struct {
	Layer string `json:"layer"`
	versus
	Tiling       string `json:"tiling"`
	StaticTiling string `json:"static_tiling"`
	StaticOrder  string `json:"static_order"`
	effort
}

// fig9a reproduces Figure 9(a): the VGG16 on arch5 cell layer by layer.
func fig9a(c Config) ([]layerRow, error) {
	_, nr, err := c.measureNetwork("vgg16", "arch5", 0)
	if err != nil {
		return nil, err
	}
	rows := make([]layerRow, len(nr.Layers))
	for i, lr := range nr.Layers {
		rows[i] = layerRow{Layer: lr.Layer.Name, versus: versusLayer(lr),
			Tiling: lr.BestOoO.Factors.String(), StaticTiling: lr.BestStatic.Factors.String(),
			StaticOrder: lr.BestStaticOrder.String()}
		rows[i].effort.add(lr)
	}
	return rows, nil
}

// metricRow compares the default metric with the one that weights data
// transfers far above latency. Both are normalized against the best
// static schedule found under the default metric, as in the paper.
type metricRow struct {
	Workload string `json:"workload"`
	versus
	LeanCycles    int64 `json:"lean_cycles"`
	LeanBytes     int64 `json:"lean_bytes"`
	LeanSpeedup   Ratio `json:"lean_speedup"`
	LeanReduction Ratio `json:"lean_reduction"`
}

func metricRowOf(workload string, def versus, leanCycles, leanBytes int64) metricRow {
	return metricRow{workload, def, leanCycles, leanBytes,
		ratio(def.StaticCycles, leanCycles), ratio(def.StaticBytes, leanBytes)}
}

func minTransfer(o *search.Options) { o.Metric = search.MetricMinTransfer() }

// fig9c reproduces Figure 9(c): the VGG16 on arch5 cell against the
// same network searched under the transfer-weighted metric.
func fig9c(c Config) ([]metricRow, error) {
	def, _, err := c.measureNetwork("vgg16", "arch5", 0)
	if err != nil {
		return nil, err
	}
	lean, err := c.searchNetwork("vgg16", "arch5", minTransfer)
	if err != nil {
		return nil, err
	}
	leanCycles, _, leanBytes, _ := lean.Totals()
	return []metricRow{metricRowOf("vgg16", def.versus, leanCycles, leanBytes)}, nil
}

type fusionRow struct {
	FuseDepth int `json:"fuse_depth"`
	Segments  int `json:"segments"` // fused segments accepted
	cell
}

// fusion runs the VGG16 on arch5 cell layerwise and with the fusion
// pass, and checks the fused totals where they are measured. (Whether
// the pass finds a segment at all depends on the regime: it does at
// scale 4 under the quick budget, which the tests and the guard pin.)
func fusion(c Config) ([]fusionRow, error) {
	var rows []fusionRow
	for depth := 0; depth <= 1; depth++ {
		row, nr, err := c.measureNetwork("vgg16", "arch5", depth)
		if err != nil {
			return nil, err
		}
		rows = append(rows, fusionRow{FuseDepth: depth, Segments: len(nr.Segments), cell: row})
	}
	return rows, checkFused(rows[0], rows[1])
}

// checkFused demands what the fusion pass promises. A fused segment is
// accepted only when it strictly beats its layers on cycles and on
// bytes, so with a segment accepted the fused totals must be strictly
// below the layerwise ones — and with none, equal to them.
func checkFused(layerwise, fused fusionRow) error {
	strict := fused.OoOCycles < layerwise.OoOCycles && fused.OoOBytes < layerwise.OoOBytes
	equal := fused.OoOCycles == layerwise.OoOCycles && fused.OoOBytes == layerwise.OoOBytes
	if (fused.Segments > 0 && !strict) || (fused.Segments == 0 && !equal) {
		return fmt.Errorf("fused (%d segments) %d cycles / %d bytes against layerwise %d / %d",
			fused.Segments, fused.OoOCycles, fused.OoOBytes, layerwise.OoOCycles, layerwise.OoOBytes)
	}
	return nil
}

type variantRow struct {
	Network    string `json:"network"`
	Arch       string `json:"arch"`
	Variant    string `json:"variant"`
	OoOCycles  int64  `json:"ooo_cycles"`
	OoOBytes   int64  `json:"ooo_bytes"`
	Normalized Ratio  `json:"normalized"` // cycles x bytes over the default variant's
}

// fig12Variants are the configurations of Table 2: the default, the two
// alternative priority functions and the two alternative memory
// policies.
var fig12Variants = []struct {
	name      string
	priority  sched.Priority
	memPolicy spm.Policy
}{
	{"default", sched.PriorityDefault, spm.PolicyFlexer},
	{"priority1-min-transfer", sched.PriorityMinTransfer, spm.PolicyFlexer},
	{"priority2-min-spill", sched.PriorityMinSpill, spm.PolicyFlexer},
	{"mempolicy1-first-fit", sched.PriorityDefault, spm.PolicyFirstFit},
	{"mempolicy2-small-spill", sched.PriorityDefault, spm.PolicySmallestFirst},
}

// fig12 reproduces Figure 12 on two networks and two architectures.
func fig12(c Config) ([]variantRow, error) {
	var rows []variantRow
	for _, netName := range []string{"vgg16", "squeezenet"} {
		for _, archName := range []string{"arch1", "arch6"} {
			var base float64
			for _, v := range fig12Variants {
				nr, err := c.searchNetwork(netName, archName, func(o *search.Options) {
					o.Priority, o.MemPolicy = v.priority, v.memPolicy
				})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", v.name, err)
				}
				cycles, _, bytes, _ := nr.Totals()
				product := float64(cycles) * float64(bytes)
				if v.name == "default" {
					base = product
				}
				rows = append(rows, variantRow{netName, archName, v.name, cycles, bytes, ratio(product, base)})
			}
		}
	}
	return rows, nil
}
