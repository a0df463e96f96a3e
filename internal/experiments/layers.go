package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/stats"
	"github.com/flexer-sched/flexer/internal/tile"
)

type archRow struct {
	Arch   string `json:"arch"`
	Cores  int    `json:"cores"`
	SPMKiB int64  `json:"spm_kib"`
	BW     int    `json:"bw_bytes_per_cycle"`
}

// table1 reproduces Table 1: the eight evaluation configurations.
func table1(Config) ([]archRow, error) {
	var rows []archRow
	for _, a := range arch.Presets() {
		rows = append(rows, archRow{a.Name, a.Cores, a.SPMBytes / 1024, a.BandwidthBytesPerCycle})
	}
	return rows, nil
}

type pointRow struct {
	Layer  string `json:"layer"`
	Tiling string `json:"tiling"`
	Kind   string `json:"kind"` // "ooo", or "static*": the best-static reference point
	Cycles int64  `json:"cycles"`
	Bytes  int64  `json:"bytes"`
}

// fig1 reproduces Figure 1 on a two-NPU system: for one ResNet50 layer
// and one VGG16 layer, the OoO schedule of every viable tiling (blue
// dots) plus the overall best fixed loop-order schedule (yellow dot).
func fig1(c Config) ([]pointRow, error) {
	var rows []pointRow
	for _, wl := range [][2]string{{"resnet50", "conv_3_1_2"}, {"vgg16", "conv3_1"}} {
		// The scatter plot wants every viable tiling, not just the
		// non-dominated survivors.
		lr, err := c.searchLayer(wl[0], wl[1], "arch1", func(o *search.Options) { o.DisableDominance = true })
		if err != nil {
			return nil, err
		}
		label := wl[0] + "/" + wl[1]
		for _, cand := range lr.Candidates {
			rows = append(rows, pointRow{label, cand.Factors.String(), "ooo", cand.OoO.LatencyCycles, cand.OoO.TrafficBytes()})
		}
		rows = append(rows, pointRow{label, lr.BestStatic.Factors.String(), "static*",
			lr.BestStatic.LatencyCycles, lr.BestStatic.TrafficBytes()})
	}
	return rows, nil
}

// fig9b reproduces Figure 9(b): layers conv3_1 and conv3_2 of VGG16 on
// arch5 under the default and the transfer-weighted metric.
func fig9b(c Config) ([]metricRow, error) {
	var rows []metricRow
	for _, name := range []string{"conv3_1", "conv3_2"} {
		def, err := c.searchLayer("vgg16", name, "arch5", nil)
		if err != nil {
			return nil, err
		}
		lean, err := c.searchLayer("vgg16", name, "arch5", minTransfer)
		if err != nil {
			return nil, err
		}
		rows = append(rows, metricRowOf("vgg16/"+name, versusLayer(def),
			lean.BestOoO.LatencyCycles, lean.BestOoO.TrafficBytes()))
	}
	return rows, nil
}

// pressureLayers are the two layers Figure 10 and the energy estimate
// look at, on arch6.
var pressureLayers = [][2]string{{"vgg16", "conv4_2"}, {"resnet50", "conv_3_1_1"}}

// schedule is a schedule under the name its rows carry.
type schedule struct {
	name string
	r    *sched.Result
}

type moveRow struct {
	Layer    string `json:"layer"`
	Schedule string `json:"schedule"` // "on-chip", "flexer", "static"
	Kind     string `json:"type"`
	Bytes    int64  `json:"bytes"`
	MaxMoves int    `json:"max_moves"`
	Moves    string `json:"moves_x_tiles"` // reload histogram, "moves x:tiles"
}

// fig10 reproduces Figure 10: the per-type amount of transferred data
// and reload counts, comparing the unlimited-memory ideal, Flexer, and
// the best static loop order.
func fig10(c Config) ([]moveRow, error) {
	var rows []moveRow
	for _, wl := range pressureLayers {
		lr, err := c.searchLayer(wl[0], wl[1], "arch6", nil)
		if err != nil {
			return nil, err
		}
		label := wl[0] + "/" + wl[1]
		// The on-chip ideal (every tile moved at most once) is shown
		// for the OoO schedule's tiling, like the paper's single
		// "on-chip" bar; the static schedule may use a different
		// tiling, so its floor differs slightly.
		grid, err := tile.NewGrid(lr.Layer, lr.BestOoO.Factors)
		if err != nil {
			return nil, err
		}
		for k, bytes := range stats.OnChipIdeal(grid) {
			rows = append(rows, moveRow{label, "on-chip", tile.Kind(k).String(), bytes, 1,
				histString(map[int]int{1: grid.NumTiles(tile.Kind(k))})})
		}
		for _, s := range []schedule{{"flexer", lr.BestOoO}, {"static", lr.BestStatic}} {
			for k, m := range stats.Movements(s.r) {
				rows = append(rows, moveRow{label, s.name, tile.Kind(k).String(), m.TotalBytes, m.MaxMoves,
					histString(m.ReloadHistogram)})
			}
		}
	}
	return rows, nil
}

func histString(h map[int]int) string {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%dx:%d", k, h[k])
	}
	return strings.Join(parts, " ")
}

type reuseRow struct {
	Layer    string `json:"layer"`
	Schedule string `json:"schedule"`
	Pattern  string `json:"pattern"`
	Sets     int    `json:"sets"`
}

// fig11 reproduces Figure 11: the distribution of per-set spatial reuse
// patterns for one layer, static versus Flexer. Static loop orders show
// essentially one sharing pattern; Flexer mixes several.
func fig11(c Config) ([]reuseRow, error) {
	// The flexer-alt sweep below inspects every scheduled tiling, so
	// keep the candidate list exhaustive.
	lr, err := c.searchLayer("vgg16", "conv4_2", "arch6", func(o *search.Options) { o.DisableDominance = true })
	if err != nil {
		return nil, err
	}
	// The metric-best tiling is not always the most illustrative one;
	// also report the OoO candidate with the most distinct sharing
	// patterns, which is the behaviour Figure 11 visualizes.
	alt := lr.BestOoO
	for _, cand := range lr.Candidates {
		if stats.DistinctPatterns(cand.OoO) > stats.DistinctPatterns(alt) {
			alt = cand.OoO
		}
	}
	schedules := []schedule{{"static", lr.BestStatic}, {"flexer", lr.BestOoO}}
	if alt != lr.BestOoO {
		schedules = append(schedules, schedule{"flexer-alt", alt})
	}
	var rows []reuseRow
	for _, s := range schedules {
		counts := stats.ReusePatterns(s.r)
		for _, pattern := range stats.SortedPatterns(counts) {
			rows = append(rows, reuseRow{lr.Layer.Name, s.name, pattern, counts[pattern]})
		}
	}
	return rows, nil
}

// onOffRow compares the best OoO schedule of a layer under the default
// options (on) with the one under a changed option (off).
type onOffRow struct {
	Variant   string `json:"variant"`
	Workload  string `json:"workload"`
	OnCycles  int64  `json:"on_cycles"`
	OnBytes   int64  `json:"on_bytes"`
	OffCycles int64  `json:"off_cycles"`
	OffBytes  int64  `json:"off_bytes"`
	OffVsOn   Ratio  `json:"off_vs_on"` // cycles x bytes, off / on (>1: the default wins)
	OnSets    int    `json:"on_sets"`   // candidate sets the on schedule evaluated
	OffSets   int    `json:"off_sets"`
}

// onOff fills one row per layer: the layer searched as configured and
// with vary applied.
func (c Config) onOff(variant string, vary func(*search.Options), layerNames ...string) ([]onOffRow, error) {
	var rows []onOffRow
	for _, name := range layerNames {
		on, err := c.searchLayer("vgg16", name, "arch5", nil)
		if err != nil {
			return nil, err
		}
		off, err := c.searchLayer("vgg16", name, "arch5", vary)
		if err != nil {
			return nil, err
		}
		a, b := on.BestOoO, off.BestOoO
		rows = append(rows, onOffRow{variant, "vgg16/" + name, a.LatencyCycles, a.TrafficBytes(), b.LatencyCycles, b.TrafficBytes(),
			ratio(b.Metric(), a.Metric()), a.SetsEvaluated, b.SetsEvaluated})
	}
	return rows, nil
}

// ablations measures the two scheduler features DESIGN.md calls out
// (not in the paper's figures) on one layer.
func ablations(c Config) ([]onOffRow, error) {
	pruning, err := c.onOff("dataflow-pruning off", func(o *search.Options) { o.DisablePruning = true }, "conv4_2")
	if err != nil {
		return nil, err
	}
	inPlace, err := c.onOff("in-place-replacement off", func(o *search.Options) { o.DisableInPlace = true }, "conv4_2")
	return append(pruning, inPlace...), err
}

// chain measures how much inspecting the actual memory status (Flexer's
// priority) buys over a fixed progression rule in the style of
// atomic-dataflow orchestration. The fixed rule can win on
// psum-dominated layers (finishing chains early empties dirty space),
// which is why the paper's related work argues for combining priority
// rules with the actual memory state rather than either alone.
func chain(c Config) ([]onOffRow, error) {
	return c.onOff("chain-depth priority", func(o *search.Options) { o.Priority = sched.PriorityChainDepth }, "conv3_1", "conv4_2")
}

type bandwidthRow struct {
	BW int `json:"bw_bytes_per_cycle"`
	versus
}

// bandwidth schedules one layer across off-chip bandwidths on a 4-core
// machine. The character of the OoO advantage shifts with bandwidth:
// when the DMA channel is the bottleneck the OoO schedule buys traffic
// reduction, and as the machine becomes compute-bound the advantage
// moves to latency (wider, better-overlapped issue).
func bandwidth(c Config) ([]bandwidthRow, error) {
	var rows []bandwidthRow
	for _, bw := range []int{8, 16, 32, 64, 128} {
		lr, err := c.searchLayer("vgg16", "conv3_1", "arch5", func(o *search.Options) {
			o.Arch = arch.New("sweep", 4, arch.KiB(256), bw)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, bandwidthRow{bw, versusLayer(lr)})
	}
	return rows, nil
}

type energyRow struct {
	Layer    string `json:"layer"`
	OoONJ    int64  `json:"ooo_nj"`
	StaticNJ int64  `json:"static_nj"`
	Saving   Ratio  `json:"saving"` // static energy / OoO energy
	versus
}

// energy applies the first-order energy model to the Figure 10 layers:
// traffic reductions translate almost one-to-one into DRAM energy
// savings, which is the efficiency argument of the paper's
// introduction.
func energy(c Config) ([]energyRow, error) {
	em := stats.DefaultEnergyModel()
	var rows []energyRow
	for _, wl := range pressureLayers {
		lr, err := c.searchLayer(wl[0], wl[1], "arch6", nil)
		if err != nil {
			return nil, err
		}
		oooGrid, err := tile.NewGrid(lr.Layer, lr.BestOoO.Factors)
		if err != nil {
			return nil, err
		}
		staticGrid, err := tile.NewGrid(lr.Layer, lr.BestStatic.Factors)
		if err != nil {
			return nil, err
		}
		cmp := em.CompareEnergy(oooGrid, staticGrid, lr.BestOoO, lr.BestStatic)
		rows = append(rows, energyRow{wl[0] + "/" + wl[1],
			int64(math.Round(cmp.OoOPJ / 1e3)), int64(math.Round(cmp.StaticPJ / 1e3)),
			ratio(cmp.StaticPJ, cmp.OoOPJ), versusLayer(lr)})
	}
	return rows, nil
}
