// Package tile implements the tiling of a convolution layer into data
// tiles and tiled operations, the unit Flexer schedules.
//
// A tiling is described by Factors (tile extents along the output
// height, output width, output channel, and input channel dimensions).
// A Grid combines a layer with factors and provides tile counts,
// edge-aware tile sizes, and the identity of the data tiles each tiled
// convolution operation touches.
package tile

import (
	"fmt"
	"slices"

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
type ID struct {
	Kind    Kind
	A, B, C int
	L       int
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

// Validate reports whether the factors are positive.
func (f Factors) Validate() error {
	if f.OH <= 0 || f.OW <= 0 || f.OC <= 0 || f.IC <= 0 {
		return fmt.Errorf("tile: factors must be positive: %s", f)
	}
	return nil
}

// Grid is a layer partitioned by a tiling. It precomputes tile counts
// and provides size and operand queries. Grid is immutable and safe for
// concurrent use.
type Grid struct {
	Layer   layer.Conv
	F       Factors
	OutH    int   // layer output height
	OutW    int   // layer output width
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
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = new(Grid)
	}
	outH, outW := l.OutH(), l.OutW()
	f.OH = min(f.OH, outH)
	f.OW = min(f.OW, outW)
	f.OC = min(f.OC, l.OutC)
	f.IC = min(f.IC, l.InC)
	*dst = Grid{
		Layer:   l,
		F:       f,
		OutH:    outH,
		OutW:    outW,
		NOH:     ceilDiv(outH, f.OH),
		NOW:     ceilDiv(outW, f.OW),
		NOC:     ceilDiv(l.OutC, f.OC),
		NIC:     ceilDiv(l.InC, f.IC),
		rowSize: blockSizes(dst.rowSize[:0], outH, f.OH),
		colSize: blockSizes(dst.colSize[:0], outW, f.OW),
		ocSize:  blockSizes(dst.ocSize[:0], l.OutC, f.OC),
		icSize:  blockSizes(dst.icSize[:0], l.InC, f.IC),
		inRowSz: slices.Grow(dst.inRowSz[:0], ceilDiv(outH, f.OH)),
		inColSz: slices.Grow(dst.inColSz[:0], ceilDiv(outW, f.OW)),
	}
	for h := 0; h < dst.NOH; h++ {
		_, n := layer.InputRange(h*f.OH, dst.rowSize[h], l.KerH, l.StrideH, l.PadH, l.InH)
		dst.inRowSz = append(dst.inRowSz, n)
	}
	for w := 0; w < dst.NOW; w++ {
		_, n := layer.InputRange(w*f.OW, dst.colSize[w], l.KerW, l.StrideW, l.PadW, l.InW)
		dst.inColSz = append(dst.inColSz, n)
	}
	return dst, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// blockSizes appends the extents of the blocks of per elements (the
// last one short) that total elements make to dst.
func blockSizes(dst []int, total, per int) []int {
	dst = slices.Grow(dst, ceilDiv(total, per))
	for lo := 0; lo < total; lo += per {
		dst = append(dst, min(per, total-lo))
	}
	return dst
}

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

// Index returns id's position among the grid's tiles of its kind in
// (A, B, C) row-major order, in [0, NumTiles(id.Kind)), or -1 when the
// coordinates lie outside the grid. id.L is not looked at: a grid does
// not know which layer of a fused graph it is.
func (g *Grid) Index(id ID) int {
	a, b, c := g.dims(id.Kind)
	if uint(id.A) >= uint(a) || uint(id.B) >= uint(b) || uint(id.C) >= uint(c) {
		return -1
	}
	return (id.A*b+id.B)*c + id.C
}

// TileAt is the inverse of Index: the tile of kind k at position i
// (L zero).
func (g *Grid) TileAt(k Kind, i int) ID {
	_, b, c := g.dims(k)
	return ID{Kind: k, A: i / (b * c), B: i / c % b, C: i % c}
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

// InTile returns the input tile read by the op at block coordinates
// (oh, ow, *, ic).
func (g *Grid) InTile(oh, ow, ic int) ID { return ID{Kind: In, A: oh, B: ow, C: ic} }

// WtTile returns the weight tile read by the op at block coordinates
// (*, *, oc, ic).
func (g *Grid) WtTile(oc, ic int) ID { return ID{Kind: Wt, A: oc, B: ic} }

// OutTile returns the output tile written by ops at block coordinates
// (oh, ow, oc, *).
func (g *Grid) OutTile(oh, ow, oc int) ID { return ID{Kind: Out, A: oh, B: ow, C: oc} }

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
// coordinates in Index order without TileAt's divisions: the search
// bounds every tiling it enumerates with it.
func (g *Grid) SumTiles(k Kind, cost func(bytes int64) int64) (bytes, costs int64) {
	na, nb, nc := g.dims(k)
	for a := range na {
		for b := range nb {
			for c := range nc {
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
