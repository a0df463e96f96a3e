package tile

import "github.com/flexer-sched/flexer/internal/layer"

// Class is a run of blocks of one loop dimension that share a shape: N
// blocks of Out elements each (output rows, columns or channels), each
// reading In input elements — the kernel halo included, clipped by the
// padding and the input's edge, as layer.InputRange clips it. A channel
// block reads what it covers: In == Out.
type Class struct{ Out, In, N int }

// Cut is one loop dimension of a layer cut into blocks of Per elements,
// the last one short: N blocks, grouped by shape into classes
// (Cuts.Classes). Span is the input a full block's window reaches
// clipped to the input's extent alone, not to where padding starts —
// what the viability test charges a block, Per for a channel dimension.
// Blocks whose windows padding or the input's edge clips get classes of
// their own; every other full block shares one, so padding bounds how
// many a dimension has. A Cut holds no pointer, so the enumeration
// copies one into the tiling it is at without a write barrier.
type Cut struct {
	Per, N, Span int
	first, end   int32 // its classes' positions in Cuts.classes
}

// Cuts are a tiling's four loop dimensions, in Factors order (output
// rows, output columns, output channels, input channels), and their
// classes. Every size and count a Grid of the tiling answers is a sum
// over the classes: a tile's shape is one class of each dimension it
// spans, standing for the product of their block counts.
type Cuts struct {
	Dim     [4]Cut
	classes []Class
}

// Classes returns the classes of dimension d.
func (c *Cuts) Classes(d int) []Class { return c.classes[c.Dim[d].first:c.Dim[d].end] }

// CutsOf returns the cuts of the valid layer l under the positive
// factors f, clamped to the layer as NewGrid clamps them, with their
// classes appended to buf; and buf, for the next call to reuse once the
// cuts are not read any more.
func CutsOf(l layer.Conv, f Factors, buf []Class) (Cuts, []Class) {
	var c Cuts
	for d, per := range [4]int{f.OH, f.OW, f.OC, f.IC} {
		c.Dim[d], buf = appendCut(buf, &l, d, per)
	}
	c.classes = buf
	return c, buf
}

// dimOf returns loop dimension d of l (Factors order): its output
// extent, and the kernel, stride, padding and input extent that map its
// blocks to input spans (1, 1, 0 and the extent itself for a channel
// dimension, so a block reads what it covers).
func dimOf(l *layer.Conv, d int) (total, ker, stride, pad, in int) {
	switch d {
	case 0:
		return l.OutH(), l.KerH, l.StrideH, l.PadH, l.InH
	case 1:
		return l.OutW(), l.KerW, l.StrideW, l.PadW, l.InW
	case 2:
		return l.OutC, 1, 1, 0, l.OutC
	}
	return l.InC, 1, 1, 0, l.InC
}

// cutOf returns dimension d of l cut into blocks of per, clamped to its
// extent, without classes: what the viability test reads.
func cutOf(l *layer.Conv, d, per int) Cut {
	total, ker, stride, _, in := dimOf(l, d)
	per = min(per, total)
	return Cut{Per: per, N: ceilDiv(total, per), Span: min((per-1)*stride+ker, in)}
}

// appendCut is cutOf with the cut's classes appended to dst. The full
// blocks whose windows neither padding nor the input's edge clips are a
// range [lo, hi) read off the shape: a block b starts reading at
// b·per·stride − pad and ends (per−1)·stride + ker − 1 later. The blocks
// before and after it are walked one by one, run-length merged; padding
// bounds their number.
func appendCut(dst []Class, l *layer.Conv, d, per int) (Cut, []Class) {
	c := cutOf(l, d, per)
	total, ker, stride, pad, in := dimOf(l, d)
	per = c.Per
	start, step := len(dst), per*stride
	lo, hi := min(ceilDiv(pad, step), c.N), 0
	if x := in + pad - ker - (per-1)*stride; x >= 0 { // the last start whose window ends inside
		hi = min(total/per, x/step+1)
	}
	hi = max(hi, lo)
	edge := func(b int) {
		out := min(per, total-b*per)
		_, n := layer.InputRange(b*per, out, ker, stride, pad, in)
		if k := len(dst) - 1; k >= start && dst[k].Out == out && dst[k].In == n {
			dst[k].N++
			return
		}
		dst = append(dst, Class{Out: out, In: n, N: 1})
	}
	for b := 0; b < lo; b++ {
		edge(b)
	}
	if hi > lo {
		dst = append(dst, Class{Out: per, In: (per-1)*stride + ker, N: hi - lo})
	}
	for b := hi; b < c.N; b++ {
		edge(b)
	}
	c.first, c.end = int32(start), int32(len(dst))
	return c, dst
}
