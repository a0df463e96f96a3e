// Package dfg builds the tiled data-flow graph of a convolution layer
// that Flexer schedules. Each node is one tiled convolution operation
//
//	tCONV: OT(h,w,c) <- IN(h,w,i), WT(c,i) [, OT(h,w,c) as partial sum]
//
// at block coordinates (oh, ow, oc, ic). The only true dependencies are
// the partial-sum chains along the input-channel dimension: op
// (h,w,c,i) must follow (h,w,c,i-1). All ops with ic == 0 are initially
// ready, mirroring the "register-to-register" model of the paper in
// which only computational operations appear in the DFG and memory
// operations are inserted on the fly by the scheduler.
package dfg

import (
	"fmt"

	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/model"
	"github.com/flexer-sched/flexer/internal/tile"
)

// Op is one tiled convolution operation. Its index in Graph.Ops is its
// number; its block coordinates are Out.A, Out.B, Out.C (rows, columns,
// out-channels) and In.C (the accumulation step), and its layer within a
// fused graph is Out.L.
type Op struct {
	// In and Wt are the input and weight tiles read.
	In, Wt tile.ID
	// Out is the output tile written (and read as partial sum when
	// ReadsPsum).
	Out tile.ID
	// ReadsPsum reports whether the op accumulates onto a previously
	// produced partial sum (In.C > 0).
	ReadsPsum bool
	// Final reports whether the op produces the finished output tile
	// (In.C == NIC-1); the tile must then reach off-chip memory (or, in
	// a fused graph, feed the next layer on-chip).
	Final bool
	// Cycles is the compute latency from the performance model.
	Cycles int64
}

// String renders the op like the paper's figures, e.g.
// "tCONV OT(0,1,2) <- IN(0,1,0) WT(2,0) +PS".
func (o Op) String() string {
	s := fmt.Sprintf("tCONV %v <- %v %v", o.Out, o.In, o.Wt)
	if o.ReadsPsum {
		s += " +PS"
	}
	return s
}

// Graph is the tiled DFG of one layer under one tiling, or — built with
// BuildFused — of several consecutive layers stitched into one graph in
// which each consumer-layer input tile depends on the producer-layer
// output tiles covering its halo.
type Graph struct {
	// Grid is the first (or only) layer's grid.
	Grid *tile.Grid
	Ops  []Op
	// uses[Num(id)] is the total number of op accesses to each tile:
	// every op touches its IN and WT once and its OT once (write or
	// read-modify-write). In a fused graph each producer output tile is
	// additionally charged one use per consumer input tile it covers
	// (released when that input tile's own uses are exhausted). Spill
	// heuristics derive remaining-use counts from these totals.
	uses []int32
	// operands[i] numbers op i's In, Wt and Out tiles; sizes[n] is the
	// byte size of tile n. The scheduler reads them instead of naming tiles.
	operands [][3]int32
	sizes    []int64

	grids    []*tile.Grid  // per-layer grids, grids[0] == Grid
	one      [1]*tile.Grid // grids' storage in a single-layer graph
	base     []int         // base[kind*len(grids)+layer]: number of that kind and layer's first tile
	opOffset []int         // first op index of each layer
	floor    Floor

	// Fused-graph state; empty for single-layer graphs, which keep the
	// storage for the next fused build into them.
	cover      [][]tile.ID // by consumer IN tile number -> covering producer OTs
	crossSuccs [][]int     // by producer final op -> dependent consumer ops
	crossPreds [][]int     // by consumer op -> producer final ops of its IN's cover
	ots        []tile.ID   // the array cover's lists are windows of
	edges      []int       // the arrays of crossPreds' and crossSuccs' lists, and a count table
}

// Floor totals the work no schedule of a graph avoids, under the model
// the graph was built with. The scheduler counts it down as a run
// issues it: what is left is a floor on what the run still has to do
// (sched.Config.Cutoff).
type Floor struct {
	// OpCycles is the summed nominal latency of the ops.
	OpCycles int64
	// LoadBytes and LoadCycles are the size and DMA latency of the
	// mandatory loads: each first-layer IN tile and each WT tile comes
	// from off-chip at least once. A fused consumer's IN tiles may be
	// gathered on-chip instead and are not counted.
	LoadBytes, LoadCycles int64
	// WritebackBytes is the size of the last layer's OT tiles, each
	// written off-chip exactly once, when finished. A fused producer's
	// OT tiles may never leave the chip and are not counted.
	WritebackBytes int64
}

// Floor returns the graph's totals; see Floor.
func (gr *Graph) Floor() Floor { return gr.floor }

// FloorOf returns the share of a Floor under m of the tiling c cuts l
// into: the op cycles (one op per channel class pair over the whole
// output, model.ConvCycles, and the other ops' fills), and per tile kind
// the bytes and DMA cycles of its tiles, each moved once, by class.
func FloorOf(l layer.Conv, c *tile.Cuts, m model.Model) (opCycles int64, bytes, cycles [tile.NumKinds]int64) {
	eb, oh, ow, oc, ic := int64(l.ElemBytes), c.Classes(0), c.Classes(1), c.Classes(2), c.Classes(3)
	add := func(k tile.Kind, n int, elems int64) {
		bytes[k] += int64(n) * elems * eb
		cycles[k] += int64(n) * m.TransferCycles(elems*eb)
	}
	for _, o := range oc {
		for _, i := range ic {
			opCycles += int64(o.N*i.N) * m.ConvCycles(l.OutH(), l.OutW(), o.Out, i.Out, l.KerH, l.KerW)
			add(tile.Wt, o.N*i.N, int64(l.KerH*l.KerW)*int64(i.Out)*int64(o.Out))
		}
	}
	opCycles += int64(c.Dim[0].N*c.Dim[1].N-1) * int64(c.Dim[2].N*c.Dim[3].N) * m.FillCycles()
	for _, r := range oh {
		for _, w := range ow {
			for _, i := range ic {
				add(tile.In, r.N*w.N*i.N, int64(r.In)*int64(w.In)*int64(i.Out))
			}
			for _, o := range oc {
				add(tile.Out, r.N*w.N*o.N, int64(r.Out)*int64(w.Out)*int64(o.Out))
			}
		}
	}
	return opCycles, bytes, cycles
}

// LastLayer returns the index of the final layer (0 for Build graphs).
func (gr *Graph) LastLayer() int { return len(gr.grids) - 1 }

// Grids returns the per-layer grids, one per stitched layer. The slice is
// shared; callers must not modify it.
func (gr *Graph) Grids() []*tile.Grid { return gr.grids }

// Size returns the byte size of id, dispatching on its layer.
func (gr *Graph) Size(id tile.ID) int64 { return gr.grids[id.L].Size(id) }

// SizeOf returns the byte size of the tile numbered n: Size(Tile(n)).
func (gr *Graph) SizeOf(n int32) int64 { return gr.sizes[n] }

// Operands returns the numbers of op i's In, Wt and Out tiles, in that
// order: Num of each.
func (gr *Graph) Operands(i int) [3]int32 { return gr.operands[i] }

// Tile numbers. Every tile of a graph has a dense number in
// [0, NumTiles()), computed from its coordinates alone: kind-major,
// then layer, then (A, B, C) row-major within the layer's grid —
// ascending numbers are ascending (Kind, L, A, B, C). Build records two
// tables by them, each op's operand numbers (Operands) and each tile's
// size (SizeOf), so that a scheduling step names no tile. The scheduler
// and the scratchpad it binds index their per-tile state by these
// numbers; tile.ID stays the name everywhere a tile leaves the
// scheduler (results, records, traces, the verifier).

// NumTiles returns the number of tiles of the graph.
func (gr *Graph) NumTiles() int { return len(gr.uses) }

// Num returns the number of id, which must be a tile of the graph (see
// NumOK for IDs of unknown origin).
func (gr *Graph) Num(id tile.ID) int {
	return gr.base[int(id.Kind)*len(gr.grids)+int(id.L)] + gr.grids[id.L].Index(id)
}

// NumOK is Num for an ID that arrives from outside — a schedule handed
// in for repair, a lookup by a test: ok is false when id is not a tile
// of the graph (unknown kind, no such layer, coordinates off the grid).
func (gr *Graph) NumOK(id tile.ID) (n int, ok bool) {
	if int(id.Kind) >= tile.NumKinds || uint(id.L) >= uint(len(gr.grids)) || gr.grids[id.L].Index(id) < 0 {
		return 0, false
	}
	return gr.Num(id), true
}

// Tile returns the tile numbered n, the inverse of Num.
func (gr *Graph) Tile(n int) tile.ID {
	j := len(gr.base) - 1
	for gr.base[j] > n {
		j--
	}
	l := j % len(gr.grids)
	id := gr.grids[l].TileAt(tile.Kind(j/len(gr.grids)), n-gr.base[j])
	id.L = int16(l)
	return id
}

// Covering returns the producer output tiles covering the fused
// consumer input tile id (nil for first-layer inputs and single-layer
// graphs). The returned slice is shared; callers must not modify it.
func (gr *Graph) Covering(id tile.ID) []tile.ID {
	if n, ok := gr.NumOK(id); ok && id.Kind == tile.In && n < len(gr.cover) {
		return gr.cover[n]
	}
	return nil
}

// CrossPreds returns the producer-layer ops that must complete before
// op i can run, beyond its chain predecessor: the final accumulation
// ops of every output tile covering op i's input tile. Nil for
// first-layer ops and single-layer graphs.
func (gr *Graph) CrossPreds(i int) []int {
	if len(gr.crossPreds) == 0 {
		return nil
	}
	return gr.crossPreds[i]
}

// CrossSuccs returns the consumer-layer ops depending on op i across a
// fused boundary (non-empty only for producer final ops whose output
// tile covers some consumer input).
func (gr *Graph) CrossSuccs(i int) []int {
	if len(gr.crossSuccs) == 0 {
		return nil
	}
	return gr.crossSuccs[i]
}

// FinalOp returns the index of the op that finally produces output tile
// ot (its last accumulation step).
func (gr *Graph) FinalOp(ot tile.ID) int {
	g := gr.grids[ot.L]
	return gr.opOffset[ot.L] + (g.Index(ot)+1)*g.NIC - 1
}

// PendingInto fills dst with every op's dependency in-degree (chain
// predecessor plus cross-layer predecessors) and returns it, reusing
// dst's capacity. The scheduler seeds its ready tracking from this; for
// single-layer graphs pending[i] is 1 exactly when the op reads a
// partial sum, so readiness is identical to the layerwise scheduler's.
func (gr *Graph) PendingInto(dst []int) []int {
	dst = resize(dst, len(gr.Ops))
	for i := range gr.Ops {
		dst[i] = len(gr.CrossPreds(i))
		if gr.Ops[i].ReadsPsum {
			dst[i]++
		}
	}
	return dst
}

// Build constructs the DFG for grid g with latencies from m. Ops are
// indexed in canonical (oh, ow, oc, ic) row-major order; the chain
// predecessor of op x (when x.ReadsPsum) is always op x-1.
func Build(g *tile.Grid, m model.Model) *Graph { return BuildInto(nil, g, m) }

// BuildInto is Build into the storage of dst, a graph Build, BuildInto,
// BuildFused or BuildFusedInto returned that nothing reads any more
// (nil: fresh storage), and returns it. A search that builds one graph
// per tiling reuses one graph's storage for all of them.
func BuildInto(dst *Graph, g *tile.Grid, m model.Model) *Graph {
	if dst == nil {
		dst = new(Graph)
	}
	dst.one[0] = g
	return build(dst, dst.one[:], m)
}

// build lays out the ops of grids layer by layer into gr, reusing its
// storage, and fills the per-tile use counts of each layer on its own;
// BuildFused adds the cross-layer parts.
func build(gr *Graph, grids []*tile.Grid, m model.Model) *Graph {
	nl := len(grids)
	offs := resize(gr.base, (tile.NumKinds+1)*nl)
	*gr = Graph{Grid: grids[0], grids: grids, one: gr.one, base: offs[:tile.NumKinds*nl], opOffset: offs[tile.NumKinds*nl:],
		Ops: gr.Ops[:0], operands: gr.operands[:0], uses: gr.uses, sizes: gr.sizes,
		cover: gr.cover[:0], crossSuccs: gr.crossSuccs[:0], crossPreds: gr.crossPreds[:0], ots: gr.ots, edges: gr.edges}
	tiles, ops := 0, 0
	for k := 0; k < tile.NumKinds; k++ {
		for l, g := range grids {
			gr.base[k*nl+l] = tiles
			tiles += g.NumTiles(tile.Kind(k))
		}
	}
	for l, g := range grids {
		gr.opOffset[l] = ops
		ops += g.NumOps()
	}
	gr.Ops = resize(gr.Ops, ops)[:0]
	gr.operands = resize(gr.operands, ops)[:0]
	gr.uses = resize(gr.uses, tiles) // every element is written below
	gr.sizes = resize(gr.sizes, tiles)
	for l, g := range grids {
		var classes [16]tile.Class
		c, _ := tile.CutsOf(g.Layer, g.F, classes[:0])
		opCycles, bytes, cycles := FloorOf(g.Layer, &c, m)
		gr.floor.OpCycles += opCycles
		gr.floor.LoadBytes += bytes[tile.Wt]
		gr.floor.LoadCycles += cycles[tile.Wt]
		if l == 0 { // a consumer's input may be gathered on-chip
			gr.floor.LoadBytes += bytes[tile.In]
			gr.floor.LoadCycles += cycles[tile.In]
		}
		gr.floor.WritebackBytes = bytes[tile.Out] // the last layer's stands
		// Within a layer every tile of a kind is touched equally often.
		for k := range tile.NumKinds {
			seg := gr.uses[gr.base[k*nl+l]:][:g.NumTiles(tile.Kind(k))]
			for i := range seg {
				seg[i] = int32(g.Readers(tile.Kind(k)))
			}
			sizes := gr.sizes[gr.base[k*nl+l]:]
			g.SumTiles(tile.Kind(k), func(sz int64) int64 { sizes[0], sizes = sz, sizes[1:]; return 0 })
		}
		conv := g.Layer
		inBase, wtBase, outBase := int32(gr.base[int(tile.In)*nl+l]), int32(gr.base[int(tile.Wt)*nl+l]), int32(gr.base[int(tile.Out)*nl+l])
		for oh := range int32(g.NOH) {
			for ow := range int32(g.NOW) {
				sp := oh*int32(g.NOW) + ow // (oh, ow) row-major: Num numbers In and Out tiles from it
				for oc := range int32(g.NOC) {
					for ic := range int32(g.NIC) {
						gr.operands = append(gr.operands, [3]int32{inBase + sp*int32(g.NIC) + ic, wtBase + oc*int32(g.NIC) + ic, outBase + sp*int32(g.NOC) + oc})
						rows, cols, ochs, ichs := g.OpDims(int(oh), int(ow), int(oc), int(ic))
						gr.Ops = append(gr.Ops, Op{
							In:        tile.ID{Kind: tile.In, A: oh, B: ow, C: ic, L: int16(l)},
							Wt:        tile.ID{Kind: tile.Wt, A: oc, B: ic, L: int16(l)},
							Out:       tile.ID{Kind: tile.Out, A: oh, B: ow, C: oc, L: int16(l)},
							ReadsPsum: ic > 0,
							Final:     int(ic) == g.NIC-1,
							Cycles:    m.ConvCycles(rows, cols, ochs, ichs, conv.KerH, conv.KerW),
						})
					}
				}
			}
		}
	}
	return gr
}

// resize returns s with length n, reusing its storage when it is large
// enough; the elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Pred returns the index of op i's chain predecessor, or -1 if i has no
// dependency.
func (gr *Graph) Pred(i int) int {
	if !gr.Ops[i].ReadsPsum {
		return -1
	}
	return i - 1
}

// Succ returns the index of op i's chain successor, or -1 if i is the
// last accumulation step of its output tile.
func (gr *Graph) Succ(i int) int {
	if gr.Ops[i].Final {
		return -1
	}
	return i + 1
}

// AppendUses appends the access-count table, indexed by tile number, to
// dst and returns it. The scheduler decrements a copy as ops issue to
// obtain remaining-use counts for the spill and priority heuristics.
func (gr *Graph) AppendUses(dst []int32) []int32 { return append(dst, gr.uses...) }

// Uses returns the access-count table as a fresh map keyed by tile: the
// view of AppendUses for callers outside the scheduler.
func (gr *Graph) Uses() map[tile.ID]int { return gr.UsesInto(nil) }

// UsesInto fills dst (cleared first) with the access-count table and
// returns it, letting callers that walk many graphs reuse one map. A
// nil dst allocates, like Uses.
func (gr *Graph) UsesInto(dst map[tile.ID]int) map[tile.ID]int {
	if dst == nil {
		dst = make(map[tile.ID]int, len(gr.uses))
	} else {
		clear(dst)
	}
	for n, u := range gr.uses {
		dst[gr.Tile(n)] = int(u)
	}
	return dst
}

// OpAt returns the index of the op at block coordinates (oh, ow, oc,
// ic).
func (gr *Graph) OpAt(oh, ow, oc, ic int) int {
	g := gr.Grid
	return ((oh*g.NOW+ow)*g.NOC+oc)*g.NIC + ic
}
