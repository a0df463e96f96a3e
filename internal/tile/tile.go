// Package tile implements the tiling of a convolution layer into data
// tiles and tiled operations, the unit Flexer schedules.
//
// A tiling is described by Factors (tile extents along the output
// height, output width, output channel, and input channel dimensions).
// A Grid combines a layer with factors and provides tile counts,
// edge-aware tile sizes, and how many tiled convolution operations read
// each data tile.
package tile

import (
	"fmt"
	"math"

	"github.com/flexer-sched/flexer/internal/layer"
)

// Kind distinguishes the three data tile types.
type Kind uint8

// The tile kinds: input activations, weights, and output activations
// (which double as partial sums until their last update).
const (
	In Kind = iota
	Wt
	Out
	numKinds
)

// String returns "IN", "WT" or "OT".
func (k Kind) String() string {
	switch k {
	case In:
		return "IN"
	case Wt:
		return "WT"
	case Out:
		return "OT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NumKinds is the number of distinct tile kinds.
const NumKinds = int(numKinds)

// ID identifies a data tile within a tiled layer. The meaning of the
// three coordinates depends on Kind:
//
//	In:  A = output-row block, B = output-col block, C = in-channel block
//	Wt:  A = out-channel block, B = in-channel block,  C = 0
//	Out: A = output-row block, B = output-col block, C = out-channel block
//
// Input tiles are indexed by the output block they feed (their extent
// includes the kernel halo); adjacent input tiles may overlap in the
// underlying tensor but are scheduled as distinct data blocks.
//
// L is the layer index within a fused multi-layer graph. Single-layer
// graphs leave it zero, so IDs (and everything keyed by them) are
// unchanged from the layerwise scheduler.
//
// An ID is 16 bytes: every op, schedule record and scratchpad block
// carries one to three. NewGridInto refuses a dimension of more than
// math.MaxInt32 blocks and dfg.BuildFused a stack of more than
// math.MaxInt16 layers, so no coordinate is truncated. L stays signed so
// that gob decodes a snapshot written when it was an int.
type ID struct {
	Kind    Kind
	L       int16
	A, B, C int32
}

// String renders the ID, e.g. "IN(1,0,2)"; tiles of fused layers past
// the first carry an L marker, e.g. "OT@1(0,0,2)".
func (id ID) String() string {
	if id.L > 0 {
		return fmt.Sprintf("%s@%d(%d,%d,%d)", id.Kind, id.L, id.A, id.B, id.C)
	}
	return fmt.Sprintf("%s(%d,%d,%d)", id.Kind, id.A, id.B, id.C)
}

// Factors are the tile extents of a tiling: output rows and columns per
// tile, output channels per tile, and input channels per tile. The
// input-channel factor controls how many partial-sum accumulation steps
// each output tile needs (nIC steps).
type Factors struct {
	OH, OW, OC, IC int
}

// String renders the factors, e.g. "14x14x32x64".
func (f Factors) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", f.OH, f.OW, f.OC, f.IC)
}

// validate reports whether the factors are positive.
func (f Factors) validate() error {
	if f.OH <= 0 || f.OW <= 0 || f.OC <= 0 || f.IC <= 0 {
		return fmt.Errorf("tile: factors must be positive: %s", f)
	}
	return nil
}

// Grid is a layer partitioned by a tiling. It precomputes tile counts
// and each block's extents, expanded from the tiling's Cuts, and
// provides size and operand queries. Grid is immutable and safe for
// concurrent use.
type Grid struct {
	Layer   layer.Conv
	F       Factors
	NOH     int   // number of row blocks
	NOW     int   // number of column blocks
	NOC     int   // number of out-channel blocks
	NIC     int   // number of in-channel blocks
	rowSize []int // output rows per row block (edge-aware)
	colSize []int
	ocSize  []int
	icSize  []int
	inRowSz []int // input rows read per row block (halo- and edge-aware)
	inColSz []int
}

// NewGrid builds the tile grid of l under factors f. Factors larger
// than the corresponding layer dimension are clamped.
func NewGrid(l layer.Conv, f Factors) (*Grid, error) { return NewGridInto(nil, l, f) }

// NewGridInto is NewGrid building into dst's storage (nil: fresh
// storage), a grid nothing reads any more, and returning it; on an
// error dst is left as it was. A search that bounds or schedules one
// grid per tiling reuses one grid's storage for all of them.
func NewGridInto(dst *Grid, l layer.Conv, f Factors) (*Grid, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = new(Grid)
	}
	var classes [16]Class
	c, _ := CutsOf(l, f, classes[:0])
	for _, d := range c.Dim {
		if d.N > math.MaxInt32 {
			return nil, fmt.Errorf("tile: %s cuts %s into %d blocks along one dimension, more than a tile ID holds", f, l.Name, d.N)
		}
	}
	*dst = Grid{
		Layer:   l,
		F:       Factors{OH: c.Dim[0].Per, OW: c.Dim[1].Per, OC: c.Dim[2].Per, IC: c.Dim[3].Per},
		NOH:     c.Dim[0].N,
		NOW:     c.Dim[1].N,
		NOC:     c.Dim[2].N,
		NIC:     c.Dim[3].N,
		rowSize: c.expand(dst.rowSize, 0, false),
		colSize: c.expand(dst.colSize, 1, false),
		ocSize:  c.expand(dst.ocSize, 2, false),
		icSize:  c.expand(dst.icSize, 3, false),
		inRowSz: c.expand(dst.inRowSz, 0, true),
		inColSz: c.expand(dst.inColSz, 1, true),
	}
	return dst, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// NumOps returns the total number of tiled convolution operations:
// NOH * NOW * NOC * NIC.
func (g *Grid) NumOps() int { return g.NOH * g.NOW * g.NOC * g.NIC }

// NumTiles returns the number of distinct data tiles of the given kind.
func (g *Grid) NumTiles(k Kind) int {
	a, b, c := g.dims(k)
	return a * b * c
}

// dims returns the extents of the three coordinates of kind k's tiles.
func (g *Grid) dims(k Kind) (a, b, c int) {
	switch k {
	case In:
		return g.NOH, g.NOW, g.NIC
	case Wt:
		return g.NOC, g.NIC, 1
	case Out:
		return g.NOH, g.NOW, g.NOC
	}
	return 0, 0, 0
}

// Readers returns how many ops read each tile of kind k: an input tile
// is read by each out-channel block, a weight tile by each spatial
// block, and an output tile — a partial sum until its last update — by
// each accumulation step.
func (g *Grid) Readers(k Kind) int {
	switch k {
	case In:
		return g.NOC
	case Wt:
		return g.NOH * g.NOW
	case Out:
		return g.NIC
	}
	return 0
}

// Index returns id's position among the grid's tiles of its kind in
// (A, B, C) row-major order, in [0, NumTiles(id.Kind)), or -1 when the
// coordinates lie outside the grid. id.L is not looked at: a grid does
// not know which layer of a fused graph it is.
func (g *Grid) Index(id ID) int {
	a, b, c := g.dims(id.Kind)
	if uint(id.A) >= uint(a) || uint(id.B) >= uint(b) || uint(id.C) >= uint(c) {
		return -1
	}
	return (int(id.A)*b+int(id.B))*c + int(id.C)
}

// TileAt is the inverse of Index: the tile of kind k at position i
// (L zero).
func (g *Grid) TileAt(k Kind, i int) ID {
	_, b, c := g.dims(k)
	return ID{Kind: k, A: int32(i / (b * c)), B: int32(i / c % b), C: int32(i % c)}
}

// Size returns the byte size of the tile identified by id.
func (g *Grid) Size(id ID) int64 {
	eb := int64(g.Layer.ElemBytes)
	switch id.Kind {
	case In:
		return int64(g.inRowSz[id.A]) * int64(g.inColSz[id.B]) * int64(g.icSize[id.C]) * eb
	case Wt:
		return int64(g.Layer.KerH) * int64(g.Layer.KerW) * int64(g.icSize[id.B]) * int64(g.ocSize[id.A]) * eb
	case Out:
		return int64(g.rowSize[id.A]) * int64(g.colSize[id.B]) * int64(g.ocSize[id.C]) * eb
	}
	return 0
}

// ICRange returns the input-channel interval of channel block i.
func (g *Grid) ICRange(i int) (lo, n int) { return i * g.F.IC, g.icSize[i] }

// InRowRange returns the input-row interval read by row block h,
// including the kernel halo and clipped to the layer's input extent.
func (g *Grid) InRowRange(h int) (lo, n int) {
	l := g.Layer
	return layer.InputRange(h*g.F.OH, g.rowSize[h], l.KerH, l.StrideH, l.PadH, l.InH)
}

// InColRange returns the input-column interval read by column block w.
func (g *Grid) InColRange(w int) (lo, n int) {
	l := g.Layer
	return layer.InputRange(w*g.F.OW, g.colSize[w], l.KerW, l.StrideW, l.PadW, l.InW)
}

// BlockRange returns the inclusive block-index interval [first, last]
// of the blocks with per elements each (of n total blocks) that
// intersect the element interval [lo, lo+count). count must be
// positive. Fused-graph construction uses it to map a consumer tile's
// input halo onto the producer's output blocks.
func BlockRange(lo, count, per, n int) (first, last int) {
	first = lo / per
	last = (lo + count - 1) / per
	if last > n-1 {
		last = n - 1
	}
	return first, last
}

// OpDims returns the element extents of the op at block coordinates
// (oh, ow, oc, ic): output rows, cols and channels of the tile and the
// number of input channels accumulated by this step.
func (g *Grid) OpDims(oh, ow, oc, ic int) (rows, cols, ochs, ichs int) {
	return g.rowSize[oh], g.colSize[ow], g.ocSize[oc], g.icSize[ic]
}

// TotalTileBytes returns the summed size of all distinct tiles of kind
// k. For In this exceeds the raw tensor size when halos overlap.
func (g *Grid) TotalTileBytes(k Kind) int64 {
	total, _ := g.SumTiles(k, nil)
	return total
}

// SumTiles returns the summed size of all distinct tiles of kind k and,
// with cost non-nil, the summed cost of each tile's size. It walks the
// coordinates in Index order without TileAt's divisions: dfg.Build
// writes its table of tile sizes with it, and the tests hold the closed
// form over the tiling's Cuts (CutsOf) to it.
func (g *Grid) SumTiles(k Kind, cost func(bytes int64) int64) (bytes, costs int64) {
	na, nb, nc := g.dims(k)
	for a := range int32(na) {
		for b := range int32(nb) {
			for c := range int32(nc) {
				sz := g.Size(ID{Kind: k, A: a, B: b, C: c})
				bytes += sz
				if cost != nil {
					costs += cost(sz)
				}
			}
		}
	}
	return bytes, costs
}

// String summarizes the grid.
func (g *Grid) String() string {
	return fmt.Sprintf("grid %s: %dx%dx%dx%d blocks, %d ops", g.F, g.NOH, g.NOW, g.NOC, g.NIC, g.NumOps())
}
