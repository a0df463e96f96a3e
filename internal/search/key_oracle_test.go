package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/loop"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/tile"
)

// The fmt-based spelling of the key formats, kept as the oracle of the
// appending builders in cache.go: keys are snapshot contents and ring
// homes, so the builders must produce exactly these bytes.

// oracleCacheKey was Sprintf("%+v|%s", shape, ...) with the shape's name
// blanked; %+v called layer.Conv's String, then this Sprintf.
func oracleCacheKey(l layer.Conv, opts Options) string {
	return fmt.Sprintf(": in %dx%dx%d, ker %dx%d/%d, out %dx%dx%d|%s",
		l.InH, l.InW, l.InC, l.KerH, l.KerW, l.StrideH, l.OutH(), l.OutW(), l.OutC, oracleOptionsKey(opts))
}

func oracleNetworkKey(network string, scale int, opts Options) string {
	if scale <= 0 {
		scale = 1
	}
	return fmt.Sprintf("net|%s|x%d|f%d|%s", network, scale, opts.FuseDepth, oracleOptionsKey(opts))
}

// oracleOptionsKey writes the budget's limits as a search applies them:
// a non-positive limit is the tile or sched default, MaxTilings 0.
func oracleOptionsKey(opts Options) string {
	b := opts.Budget
	orDefault := func(v, def int) int {
		if v <= 0 {
			return def
		}
		return v
	}
	return fmt.Sprintf("%d/%d/%d/pe%dx%d|%v|%v|%d|%s|%v%v%v%v|%d:%d:%d:%d:%d|%s",
		opts.Arch.Cores, opts.Arch.SPMBytes, opts.Arch.BandwidthBytesPerCycle, opts.Arch.PERows, opts.Arch.PECols,
		opts.Metric.orDefault(), opts.Priority, opts.MemPolicy, oracleDataflowsKey(b.Dataflows),
		opts.DisableInPlace, opts.DisablePruning, opts.DisableDominance, b.HintedOoO,
		max(b.MaxTilings, 0), orDefault(b.MaxOps, tile.DefaultMaxOps), orDefault(b.MaxValuesPerDim, tile.DefaultMaxValuesPerDim),
		orDefault(b.MaxReadyWindow, sched.DefaultMaxReadyWindow), orDefault(b.MaxCandidateSets, sched.DefaultMaxCandidateSets),
		oracleFaultKey(opts.FaultPlan))
}

func oracleFaultKey(p *fault.Plan) string {
	if p.Empty() {
		return ""
	}
	return p.String()
}

func oracleDataflowsKey(dfs []loop.Dataflow) string {
	if dfs == nil {
		dfs = loop.Canonical()
	}
	var sb strings.Builder
	for i, df := range dfs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(df.String())
	}
	return sb.String()
}

// checkKeys compares both key kinds with the oracle for one input.
func checkKeys(t *testing.T, what string, l layer.Conv, opts Options) {
	t.Helper()
	if got, want := CacheKey(l, opts), oracleCacheKey(l, opts); got != want {
		t.Errorf("%s: CacheKey\n got %q\nwant %q", what, got, want)
	}
	for _, scale := range []int{-3, 0, 1, 8} {
		if got, want := NetworkKey("net"+l.Name, scale, opts), oracleNetworkKey("net"+l.Name, scale, opts); got != want {
			t.Errorf("%s: NetworkKey scale %d\n got %q\nwant %q", what, scale, got, want)
		}
	}
}

// TestKeysMatchOracle walks TestCacheKeyCoversOptions' perturbations —
// every field of Options, Budget, Metric and arch.Config, one at a
// time — and then random shapes, machines, metrics, fault plans and
// dataflow sets, requiring the fmt oracle's bytes for each.
func TestKeysMatchOracle(t *testing.T) {
	l := layer.NewConv("l", 14, 14, 64, 64, 3)
	base := quickOpts(t, "arch1")
	checkKeys(t, "base", l, base)

	var walk func(path string, index []int, typ reflect.Type)
	walk = func(path string, index []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, idx := path+f.Name, append(index[:len(index):len(index)], i)
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", idx, f.Type)
				continue
			}
			o := base
			if field := reflect.ValueOf(&o).Elem().FieldByIndex(idx); field.CanSet() && perturb(field) {
				checkKeys(t, "perturbed "+name, l, o)
			}
		}
	}
	walk("", nil, reflect.TypeOf(base))

	rng := rand.New(rand.NewSource(17))
	dim := func() int { return rng.Intn(300) - 20 } // negative and zero included
	floats := []float64{0, 1, 0.1, -2.5, 1e-7, 1e6, 123456789, 1e21, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	plans := []*fault.Plan{nil, {}, {CoreDown: []fault.CoreDown{{Core: 1, Cycle: 1000}}},
		{Flaky: []fault.Flaky{{Core: 0, From: 100, To: 900, Slowdown: 1.5}}, DMA: []fault.Derate{{From: 2000, Factor: 2}, {From: 1, To: 4000, Factor: 1e-9}}}}
	all := loop.All()
	for i := 0; i < 2000; i++ {
		l := layer.Conv{Name: fmt.Sprint("r", i), InH: dim(), InW: dim(), InC: dim(), OutC: dim(), KerH: dim(), KerW: dim(),
			StrideH: dim(), StrideW: dim(), PadH: dim(), PadW: dim(), ElemBytes: dim()}
		if l.StrideH == 0 || l.StrideW == 0 {
			// The old key for a zero stride was fmt's report of
			// Conv.String dividing by zero. Nothing can depend on those
			// bytes — Validate rejects the layer, failures are never
			// persisted — so the new key need only exist.
			l.StrideH, l.StrideW = 0, rng.Intn(2)
			if k := CacheKey(l, base); !strings.Contains(k, "/0, out 0x0x") {
				t.Errorf("zero-stride key = %q", k)
			}
			continue
		}
		o := base
		o.Arch = arch.Config{Name: fmt.Sprint("m|", i), Cores: dim(), SPMBytes: rng.Int63() - 1<<62, BandwidthBytesPerCycle: dim(),
			PERows: 32 - rng.Intn(2)*dim(), PECols: 32 - rng.Intn(2)*dim()}
		o.Metric = Metric{floats[rng.Intn(len(floats))], floats[rng.Intn(len(floats))]}
		o.Priority = sched.Priority(rng.Intn(7))
		o.MemPolicy = spm.Policy(rng.Intn(5))
		o.DisableInPlace, o.DisablePruning, o.DisableDominance = rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
		o.Budget = Budget{MaxTilings: dim(), MaxOps: dim(), MaxValuesPerDim: dim(), MaxReadyWindow: dim(), MaxCandidateSets: dim(), HintedOoO: rng.Intn(2) == 0}
		switch rng.Intn(4) {
		case 0: // nil: the canonical set
		case 1:
			o.Budget.Dataflows = []loop.Dataflow{}
		case 2:
			o.Budget.Dataflows = all[rng.Intn(len(all)):]
		case 3:
			o.Budget.Dataflows = []loop.Dataflow{{Name: "odd, (name)|", Perm: [4]loop.Dim{9, loop.IC, 77, loop.OC}}, all[rng.Intn(len(all))]}
		}
		o.FuseDepth = dim()
		o.FaultPlan = plans[rng.Intn(len(plans))]
		checkKeys(t, fmt.Sprint("random ", i), l, o)
	}
}
