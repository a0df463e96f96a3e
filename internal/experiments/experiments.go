// Package experiments regenerates every table and figure of the paper's
// evaluation section. An experiment is one row of the registry: a name,
// a title and a run function returning typed rows. One renderer prints
// any experiment's rows as text (Render), the same rows are the JSON of
// the committed record (Record, EXPERIMENTS.json), and one guard
// (GuardCompare) demands that a fresh run equals that record.
//
// Networks are spatially scaled (layer shapes divided by Config.Scale)
// and searched under a named budget; the record holds the quick regime
// (scale 4, quick budget) the guard re-runs and the paper regime (scale
// 1, default budget). Every recorded field is simulated, so it depends
// on neither the host nor the Go version; the effort counters
// (candidates pruned, runs aborted, sets evaluated) repeat exactly only
// at one worker, which is how the record is generated.
package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/search"
)

// Config controls experiment size and effort.
type Config struct {
	// Scale divides the networks' spatial dimensions (1 = full size;
	// 0 means 1). Single-layer experiments (Figures 1, 9b, 10, 11, the
	// ablations and extensions) divide by min(Scale, 2): they run one
	// or two layer searches, and the reload structure they are about
	// only appears once a layer is big enough to pressure the
	// scratchpad.
	Scale int
	// Budget names the per-layer search budget (search.BudgetNames).
	Budget string
	// Workers is the search parallelism (0 = GOMAXPROCS).
	Workers int
	// Cache memoizes layer searches across experiments. A fresh cache
	// is created when nil.
	Cache *search.Cache
}

// Experiment is one entry of the registry.
type Experiment struct {
	Name  string
	Title string
	row   reflect.Type // the struct type of one row
	run   func(Config) (any, error)
}

// def builds a registry entry from a run function returning []T.
func def[T any](name, title string, run func(Config) ([]T, error)) Experiment {
	return Experiment{Name: name, Title: title, row: reflect.TypeOf((*T)(nil)).Elem(),
		run: func(c Config) (any, error) { return run(c) }}
}

// registry lists every experiment in the order "flexerbench -exp all"
// runs them.
var registry = []Experiment{
	def("table1", "Table 1: hardware configurations", table1),
	def("fig1", "Figure 1: latency vs off-chip traffic per tiling (2-NPU arch1)", fig1),
	def("fig8", "Figure 8: end to end, best OoO vs best static", fig8),
	def("fig9a", "Figure 9a: VGG16 on arch5, layer by layer", fig9a),
	def("fig9b", "Figure 9b: default vs min-transfer metric on two VGG16 layers (arch5, vs best static)", fig9b),
	def("fig9c", "Figure 9c: default vs min-transfer metric, VGG16 end to end (arch5, vs best static)", fig9c),
	def("fig10", "Figure 10: per-type transferred data and reload counts (arch6)", fig10),
	def("fig11", "Figure 11: spatial data-reuse patterns between NPUs (arch6)", fig11),
	def("fig12", "Figure 12: priority and memory-policy variants, latency x traffic normalized to default (lower is better)", fig12),
	def("fusion", "Fusion: VGG16 on arch5, layerwise (fuse depth 0) vs fused (1)", fusion),
	def("ablations", "Ablations: scheduler features on vs off (off/on of latency x traffic)", ablations),
	def("bandwidth", "Extension: OoO vs static across off-chip bandwidth (vgg16/conv3_1, 4 cores, 256 KiB)", bandwidth),
	def("energy", "Extension: first-order energy estimate (45 nm constants, arch6)", energy),
	def("chain", "Extension: memory-aware priority vs fixed chain-depth rule (chain/default of latency x traffic)", chain),
}

// Names returns the experiment names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

func lookup(name string) (Experiment, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
}

// Run runs one experiment and returns its table.
func Run(name string, cfg Config) (Table, error) {
	e, err := lookup(name)
	if err != nil {
		return Table{}, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Cache == nil {
		cfg.Cache = search.NewCache()
	}
	rows, err := e.run(cfg)
	if err != nil {
		return Table{}, fmt.Errorf("%s: %w", name, err)
	}
	return Table{Name: e.Name, Scale: cfg.Scale, Budget: cfg.Budget, Title: e.Title, Rows: rows}, nil
}

// resolve looks a network and a preset architecture up and builds the
// search options of the config for them; vary, when non-nil, then edits
// the options.
func (c Config) resolve(netName, archName string, vary func(*search.Options)) (nets.Network, search.Options, error) {
	n, err := nets.ByName(netName)
	if err != nil {
		return nets.Network{}, search.Options{}, err
	}
	a, err := arch.Preset(archName)
	if err != nil {
		return nets.Network{}, search.Options{}, err
	}
	b, err := search.BudgetByName(c.Budget)
	if err != nil {
		return nets.Network{}, search.Options{}, err
	}
	opts := search.Options{Arch: a, Budget: b, Workers: c.Workers, Cache: c.Cache}
	if vary != nil {
		vary(&opts)
	}
	return n, opts, nil
}

// searchNetwork searches a network, scaled, on a preset architecture.
func (c Config) searchNetwork(netName, archName string, vary func(*search.Options)) (*search.NetworkResult, error) {
	n, opts, err := c.resolve(netName, archName, vary)
	if err != nil {
		return nil, err
	}
	nr, err := search.SearchNetwork(n.Scale(c.Scale), opts)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", netName, archName, err)
	}
	return nr, nil
}

// searchLayer searches one layer for a single-layer experiment, scaled
// by min(Scale, 2) rather than the whole-network Scale.
func (c Config) searchLayer(netName, layerName, archName string, vary func(*search.Options)) (*search.LayerResult, error) {
	n, opts, err := c.resolve(netName, archName, vary)
	if err != nil {
		return nil, err
	}
	l, err := n.Scale(min(c.Scale, 2)).Layer(layerName)
	if err != nil {
		return nil, err
	}
	return search.SearchLayer(l, opts)
}
