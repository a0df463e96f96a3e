package dfg

import (
	"math/rand"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/tile"
)

// raceEnabled is set by race_test.go under the race detector, which
// makes the full sweep below take minutes.
var raceEnabled bool

// walkFloor is FloorOf by walking the grid: the op cycles of one op per
// channel block pair over the whole output plus the other ops' fills,
// and the tiles' sizes as SumTiles walks them for Build's sizes table,
// with their transfer cycles.
func walkFloor(g *tile.Grid, m model.Model) (opCycles int64, bytes, cycles [tile.NumKinds]int64) {
	for oc := range g.NOC {
		for ic := range g.NIC {
			_, _, ochs, ichs := g.OpDims(0, 0, oc, ic)
			opCycles += m.ConvCycles(g.Layer.OutH(), g.Layer.OutW(), ochs, ichs, g.Layer.KerH, g.Layer.KerW)
		}
	}
	opCycles += int64(g.NumOps()-g.NOC*g.NIC) * m.FillCycles()
	for k := range tile.NumKinds {
		bytes[k], cycles[k] = g.SumTiles(tile.Kind(k), m.TransferCycles)
	}
	return opCycles, bytes, cycles
}

// checkBlocks fails t unless every block of g has the extents the layer
// gives it block by block, the derivation a Grid's expansion of its
// Cuts replaced: block b of a dimension cut into blocks of per covers
// min(per, total − b·per) output elements and reads the input span
// layer.InputRange clips for them.
func checkBlocks(t *testing.T, g *tile.Grid) {
	t.Helper()
	l := g.Layer
	type dim struct{ per, total, ker, stride, pad, in int }
	var want [4][][2]int // by dimension and block: output and input extent
	for d, x := range [4]dim{
		{g.F.OH, l.OutH(), l.KerH, l.StrideH, l.PadH, l.InH},
		{g.F.OW, l.OutW(), l.KerW, l.StrideW, l.PadW, l.InW},
		{g.F.OC, l.OutC, 1, 1, 0, l.OutC},
		{g.F.IC, l.InC, 1, 1, 0, l.InC},
	} {
		for b := 0; b*x.per < x.total; b++ {
			out := min(x.per, x.total-b*x.per)
			_, in := layer.InputRange(b*x.per, out, x.ker, x.stride, x.pad, x.in)
			want[d] = append(want[d], [2]int{out, in})
		}
	}
	if n := [4]int{g.NOH, g.NOW, g.NOC, g.NIC}; n != [4]int{len(want[0]), len(want[1]), len(want[2]), len(want[3])} {
		t.Fatalf("%s %s: %v blocks, want %d, %d, %d, %d", l, g.F, n, len(want[0]), len(want[1]), len(want[2]), len(want[3]))
	}
	// Each block of each dimension, the other dimensions at block 0.
	for d := range want {
		for b, w := range want[d] {
			var at [4]int
			at[d] = b
			rows, cols, ochs, ichs := g.OpDims(at[0], at[1], at[2], at[3])
			in := tile.ID{Kind: tile.In, A: int32(at[0]), B: int32(at[1]), C: int32(at[3])}
			wantIn := int64(want[0][at[0]][1]) * int64(want[1][at[1]][1]) * int64(want[3][at[3]][0]) * int64(l.ElemBytes)
			if got := [4]int{rows, cols, ochs, ichs}[d]; got != w[0] || g.Size(in) != wantIn {
				t.Fatalf("%s %s: dimension %d block %d covers %d and %s is %d bytes; want %d and %d (input extent %d)",
					l, g.F, d, b, got, in, g.Size(in), w[0], wantIn, w[1])
			}
		}
	}
}

// checkFloor fails t unless g's blocks are those of its layer
// (checkBlocks) and the closed form of g's tiling equals the walk of
// its grid.
func checkFloor(t *testing.T, g *tile.Grid, m model.Model) {
	t.Helper()
	checkBlocks(t, g)
	var classes [16]tile.Class
	c, _ := tile.CutsOf(g.Layer, g.F, classes[:0])
	ops, bytes, cycles := FloorOf(g.Layer, &c, m)
	wantOps, wantBytes, wantCycles := walkFloor(g, m)
	if ops != wantOps || bytes != wantBytes || cycles != wantCycles {
		t.Fatalf("%s %s: closed form %d ops cycles, %v bytes, %v DMA cycles; walk %d, %v, %v",
			g.Layer, g.F, ops, bytes, cycles, wantOps, wantBytes, wantCycles)
	}
}

// TestFloorOfMatchesWalk holds the closed form to the walk on every
// tiling Enumerate returns (every viable one at its default limits) of
// the four networks at scales 1, 2 and 8 on a 2-core and a 4-core
// machine; -short and the race detector take every 97th.
func TestFloorOfMatchesWalk(t *testing.T) {
	every := 1
	if testing.Short() || raceEnabled {
		every = 97
	}
	var g *tile.Grid
	checked := 0
	for _, archName := range []string{"arch1", "arch5"} {
		cfg, err := arch.Preset(archName)
		if err != nil {
			t.Fatal(err)
		}
		m := model.New(cfg)
		for _, n := range nets.All() {
			for _, scale := range []int{1, 2, 8} {
				for _, l := range n.Scale(scale).Layers {
					for i, f := range tile.Enumerate(l, tile.EnumLimits{SPMBytes: cfg.SPMBytes, Cores: cfg.Cores}) {
						if i%every != 0 {
							continue
						}
						if g, err = tile.NewGridInto(g, l, f); err != nil {
							t.Fatal(err)
						}
						checkFloor(t, g, m)
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d tilings", checked)
}

// FuzzFloor draws a layer — strides above 1, padding up to the kernel,
// kernels wider than the input — factors up to twice each dimension and
// a preset machine, and holds every block of the grid to its layer, the
// closed form to the walk, and Build's graph to it: its floor's op
// cycles are the sum over its ops, and its sizes table sums to the
// bytes.
func FuzzFloor(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(seed)
	}
	presets := arch.Presets()
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		l := layer.Conv{Name: "f", InH: rng.Intn(16) + 1, InW: rng.Intn(16) + 1, InC: rng.Intn(24) + 1, OutC: rng.Intn(24) + 1,
			KerH: rng.Intn(9) + 1, KerW: rng.Intn(9) + 1, StrideH: rng.Intn(3) + 1, StrideW: rng.Intn(3) + 1, ElemBytes: rng.Intn(2) + 1}
		l.PadH, l.PadW = rng.Intn(l.KerH+1), rng.Intn(l.KerW+1)
		if l.Validate() != nil {
			return
		}
		g, err := tile.NewGrid(l, tile.Factors{OH: rng.Intn(2*l.OutH()) + 1, OW: rng.Intn(2*l.OutW()) + 1, OC: rng.Intn(2*l.OutC) + 1, IC: rng.Intn(2*l.InC) + 1})
		if err != nil {
			t.Fatal(err)
		}
		m := model.New(presets[rng.Intn(len(presets))])
		checkFloor(t, g, m)
		gr := Build(g, m)
		var opCycles, bytes int64
		for _, op := range gr.Ops {
			opCycles += op.Cycles
		}
		for n := range gr.NumTiles() {
			bytes += gr.SizeOf(int32(n))
		}
		if fl := gr.Floor(); opCycles != fl.OpCycles || bytes != fl.LoadBytes+fl.WritebackBytes {
			t.Fatalf("%s %s: ops sum to %d cycles, tiles to %d bytes; floor %+v", l, g.F, opCycles, bytes, fl)
		}
	})
}
