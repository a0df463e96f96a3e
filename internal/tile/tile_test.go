package tile

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/flexer-sched/flexer/internal/layer"
)

func testLayer() layer.Conv {
	return layer.NewConv("t", 14, 14, 48, 40, 3)
}

// TestIDSize pins a tile ID at 16 bytes: ops, schedule records and
// scratchpad blocks carry one to three each.
func TestIDSize(t *testing.T) {
	if got := unsafe.Sizeof(ID{}); got != 16 {
		t.Errorf("tile.ID is %d bytes, want 16", got)
	}
}

// TestGridRefusesBlocksAnIDCannotNumber: a dimension cut into more than
// math.MaxInt32 blocks is an error, not a truncated coordinate. The
// refusal comes before the grid's per-block tables are sized.
func TestGridRefusesBlocksAnIDCannotNumber(t *testing.T) {
	for _, l := range []layer.Conv{
		layer.NewConv("wide-out", 1, 1, 1, math.MaxInt32+1, 1),
		layer.NewConv("wide-in", 1, 1, math.MaxInt32+1, 1, 1),
	} {
		if g, err := NewGrid(l, Factors{OH: 1, OW: 1, OC: 1, IC: 1}); err == nil || !strings.Contains(err.Error(), "blocks") {
			t.Errorf("%s: NewGrid = %v, %v; want a block-count error", l.Name, g, err)
		}
	}
}

func TestGridBlockCounts(t *testing.T) {
	g, err := NewGrid(testLayer(), Factors{OH: 4, OW: 7, OC: 16, IC: 32})
	if err != nil {
		t.Fatal(err)
	}
	// 14/4 -> 4 blocks, 14/7 -> 2, 40/16 -> 3, 48/32 -> 2.
	if g.NOH != 4 || g.NOW != 2 || g.NOC != 3 || g.NIC != 2 {
		t.Fatalf("blocks = %d,%d,%d,%d, want 4,2,3,2", g.NOH, g.NOW, g.NOC, g.NIC)
	}
	if got, want := g.NumOps(), 4*2*3*2; got != want {
		t.Errorf("NumOps = %d, want %d", got, want)
	}
	if got, want := g.NumTiles(In), 4*2*2; got != want {
		t.Errorf("NumTiles(In) = %d, want %d", got, want)
	}
	if got, want := g.NumTiles(Wt), 3*2; got != want {
		t.Errorf("NumTiles(Wt) = %d, want %d", got, want)
	}
	if got, want := g.NumTiles(Out), 4*2*3; got != want {
		t.Errorf("NumTiles(Out) = %d, want %d", got, want)
	}
}

func TestGridClampsOversizedFactors(t *testing.T) {
	g, err := NewGrid(testLayer(), Factors{OH: 100, OW: 100, OC: 100, IC: 100})
	if err != nil {
		t.Fatal(err)
	}
	if g.NOH != 1 || g.NOW != 1 || g.NOC != 1 || g.NIC != 1 {
		t.Fatalf("oversized factors not clamped: %+v", g)
	}
	if g.F.OH != 14 || g.F.OC != 40 || g.F.IC != 48 {
		t.Fatalf("clamped factors wrong: %v", g.F)
	}
}

func TestGridRejectsBadInputs(t *testing.T) {
	if _, err := NewGrid(testLayer(), Factors{OH: 0, OW: 1, OC: 1, IC: 1}); err == nil {
		t.Error("zero factor accepted")
	}
	bad := testLayer()
	bad.InC = 0
	if _, err := NewGrid(bad, Factors{OH: 1, OW: 1, OC: 1, IC: 1}); err == nil {
		t.Error("invalid layer accepted")
	}
}

// TestOutputCoverage: output tiles partition the output tensor exactly.
func TestOutputCoverage(t *testing.T) {
	l := testLayer()
	g, err := NewGrid(l, Factors{OH: 4, OW: 5, OC: 24, IC: 48})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for h := range int32(g.NOH) {
		for w := range int32(g.NOW) {
			for c := range int32(g.NOC) {
				sum += g.Size(ID{Kind: Out, A: h, B: w, C: c})
			}
		}
	}
	if want := int64(l.OutH() * l.OutW() * l.OutC * l.ElemBytes); sum != want {
		t.Errorf("output tiles sum to %d bytes, tensor is %d", sum, want)
	}
}

// TestWeightCoverage: weight tiles partition the weight tensor exactly.
func TestWeightCoverage(t *testing.T) {
	l := testLayer()
	g, err := NewGrid(l, Factors{OH: 4, OW: 5, OC: 24, IC: 20})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for c := range int32(g.NOC) {
		for i := range int32(g.NIC) {
			sum += g.Size(ID{Kind: Wt, A: c, B: i})
		}
	}
	if want := int64(l.KerH * l.KerW * l.InC * l.OutC * l.ElemBytes); sum != want {
		t.Errorf("weight tiles sum to %d bytes, tensor is %d", sum, want)
	}
}

// TestInputTilesAtLeastTensor: input tiles cover at least the input
// tensor (halos overlap, so the sum can exceed it but never fall
// short for stride <= kernel).
func TestInputTilesAtLeastTensor(t *testing.T) {
	l := testLayer()
	g, err := NewGrid(l, Factors{OH: 5, OW: 5, OC: 40, IC: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got, tensor := g.TotalTileBytes(In), int64(l.InH*l.InW*l.InC*l.ElemBytes); got < tensor {
		t.Errorf("input tiles sum to %d bytes, tensor is %d", got, tensor)
	}
}

func TestEdgeTileSizes(t *testing.T) {
	// 14 rows in blocks of 4: sizes 4,4,4,2.
	g, err := NewGrid(testLayer(), Factors{OH: 4, OW: 14, OC: 40, IC: 48})
	if err != nil {
		t.Fatal(err)
	}
	eb := int64(testLayer().ElemBytes)
	full := g.Size(ID{Kind: Out, A: 0, B: 0, C: 0})
	edge := g.Size(ID{Kind: Out, A: 3, B: 0, C: 0})
	if full != 4*14*40*eb {
		t.Errorf("full tile = %d bytes, want %d", full, 4*14*40*eb)
	}
	if edge != 2*14*40*eb {
		t.Errorf("edge tile = %d bytes, want %d", edge, 2*14*40*eb)
	}
}

func TestInputTileHalo(t *testing.T) {
	// 3x3 same-pad conv: an interior block of 4 output rows reads 6
	// input rows; a boundary block reads 5 (one side clipped).
	g, err := NewGrid(testLayer(), Factors{OH: 4, OW: 14, OC: 40, IC: 48})
	if err != nil {
		t.Fatal(err)
	}
	eb := int64(testLayer().ElemBytes)
	first := g.Size(ID{Kind: In, A: 0, B: 0, C: 0}) // rows 0..4 (pad clips top)
	inner := g.Size(ID{Kind: In, A: 1, B: 0, C: 0}) // rows 3..8
	if first != 5*14*48*eb {
		t.Errorf("boundary input tile = %d, want %d", first, 5*14*48*eb)
	}
	if inner != 6*14*48*eb {
		t.Errorf("interior input tile = %d, want %d", inner, 6*14*48*eb)
	}
}

// maxOperandBytes returns the largest combined operand footprint of any
// single op under this grid: input tile + weight tile + output tile.
// A tiling is infeasible on an SPM smaller than this.
func (g *Grid) maxOperandBytes() int64 {
	var total int64
	for k := range numKinds {
		var largest int64
		for i := range g.NumTiles(k) {
			largest = max(largest, g.Size(g.TileAt(k, i)))
		}
		total += largest
	}
	return total
}

func TestMaxOperandBytes(t *testing.T) {
	l := testLayer()
	g, err := NewGrid(l, Factors{OH: 7, OW: 7, OC: 20, IC: 24})
	if err != nil {
		t.Fatal(err)
	}
	got := g.maxOperandBytes()
	// Upper bound from the fast estimator used during enumeration.
	eb := int64(l.ElemBytes)
	inMax := int64(9*9*24) * eb // (7-1)*1+3 = 9 rows/cols of halo
	wtMax := int64(3*3*24*20) * eb
	outMax := int64(7*7*20) * eb
	if got > inMax+wtMax+outMax {
		t.Errorf("maxOperandBytes = %d exceeds bound %d", got, inMax+wtMax+outMax)
	}
	if got <= 0 {
		t.Errorf("maxOperandBytes = %d", got)
	}
}

func TestKindAndIDStrings(t *testing.T) {
	if In.String() != "IN" || Wt.String() != "WT" || Out.String() != "OT" {
		t.Errorf("kind strings: %s %s %s", In, Wt, Out)
	}
	id := ID{Kind: In, A: 1, B: 0, C: 2}
	if id.String() != "IN(1,0,2)" {
		t.Errorf("ID string = %q", id.String())
	}
	if (Factors{OH: 14, OW: 14, OC: 32, IC: 64}).String() != "14x14x32x64" {
		t.Errorf("factors string = %q", Factors{OH: 14, OW: 14, OC: 32, IC: 64})
	}
}

// TestSizesPositive: every tile of every kind has positive size, for
// random tilings of random layers.
func TestSizesPositive(t *testing.T) {
	check := func(inH8, inC8, outC8, ker8, fOH8, fOW8, fOC8, fIC8 uint8) bool {
		inH := int(inH8%30) + 3
		inC := int(inC8%64) + 1
		outC := int(outC8%64) + 1
		ker := []int{1, 3, 5}[int(ker8)%3]
		l := layer.NewConv("q", inH, inH, inC, outC, ker)
		f := Factors{
			OH: int(fOH8%uint8(l.OutH()))%8 + 1,
			OW: int(fOW8%uint8(l.OutW()))%8 + 1,
			OC: int(fOC8)%outC + 1,
			IC: int(fIC8)%inC + 1,
		}
		g, err := NewGrid(l, f)
		if err != nil {
			return false
		}
		for h := range int32(g.NOH) {
			for w := range int32(g.NOW) {
				for i := range int32(g.NIC) {
					if g.Size(ID{Kind: In, A: h, B: w, C: i}) <= 0 {
						return false
					}
				}
				for c := range int32(g.NOC) {
					if g.Size(ID{Kind: Out, A: h, B: w, C: c}) <= 0 {
						return false
					}
				}
			}
		}
		for c := range int32(g.NOC) {
			for i := range int32(g.NIC) {
				if g.Size(ID{Kind: Wt, A: c, B: i}) <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNewGridIntoMatchesNewGrid: a grid built into the storage of a grid
// of another layer and tiling equals one built afresh, over random
// layers (strides and pads included) and factors, and a build that
// fails leaves the storage as it was.
func TestNewGridIntoMatchesNewGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	used, err := NewGrid(testLayer(), Factors{OH: 1, OW: 1, OC: 1, IC: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		ker := []int{1, 3, 5, 7}[rng.Intn(4)]
		l := layer.NewConv("r", ker+rng.Intn(40), ker+rng.Intn(40), 1+rng.Intn(96), 1+rng.Intn(96), ker).WithStride(1 + rng.Intn(2)).WithPad(rng.Intn(ker))
		f := Factors{OH: 1 + rng.Intn(l.OutH()+2), OW: 1 + rng.Intn(l.OutW()+2), OC: 1 + rng.Intn(l.OutC+2), IC: 1 + rng.Intn(l.InC+2)}
		want, err := NewGrid(l, f)
		if err != nil {
			t.Fatalf("%s %v: %v", l, f, err)
		}
		got, err := NewGridInto(used, l, f)
		if err != nil || got != used || !reflect.DeepEqual(*got, *want) {
			t.Fatalf("%s %v: built into used storage %+v (%v), afresh %+v", l, f, got, err, want)
		}
	}
	before := *used
	if g, err := NewGridInto(used, testLayer(), Factors{OH: 0, OW: 1, OC: 1, IC: 1}); err == nil || g != nil || !reflect.DeepEqual(*used, before) {
		t.Errorf("a failed build returned %v, %v and left %+v, want an error and %+v", g, err, *used, before)
	}
}

func TestOpDims(t *testing.T) {
	g, err := NewGrid(testLayer(), Factors{OH: 4, OW: 7, OC: 16, IC: 32})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, ochs, ichs := g.OpDims(3, 1, 2, 1)
	if rows != 2 || cols != 7 || ochs != 8 || ichs != 16 {
		t.Errorf("OpDims(3,1,2,1) = %d,%d,%d,%d, want 2,7,8,16", rows, cols, ochs, ichs)
	}
}
