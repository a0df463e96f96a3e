// Package layer describes DNN layer shapes. Flexer schedules one layer at
// a time; the only shape it needs in detail is the (strided, padded) 2-D
// convolution, which also covers fully-connected layers (1x1 spatial) and
// depthwise-style layers via the channel parameters.
package layer

import (
	"fmt"
	"strconv"
)

// Conv describes a convolution layer's shape. All dimensions are in
// elements; ElemBytes converts to bytes (e.g. 2 for fp16, 1 for int8).
type Conv struct {
	// Name identifies the layer inside its network (e.g. "conv3_1").
	Name string
	// InH, InW, InC are the input activation height, width and channels.
	InH, InW, InC int
	// OutC is the number of output channels (i.e. filters).
	OutC int
	// KerH, KerW are the kernel height and width.
	KerH, KerW int
	// StrideH, StrideW are the convolution strides.
	StrideH, StrideW int
	// PadH, PadW are the symmetric zero paddings.
	PadH, PadW int
	// ElemBytes is the element size in bytes.
	ElemBytes int
}

// NewConv returns a Conv with common defaults: stride 1, "same"-ish
// padding ker/2, fp16 elements. Use the struct literal form for full
// control.
func NewConv(name string, inH, inW, inC, outC, ker int) Conv {
	return Conv{
		Name: name,
		InH:  inH, InW: inW, InC: inC,
		OutC: outC,
		KerH: ker, KerW: ker,
		StrideH: 1, StrideW: 1,
		PadH: ker / 2, PadW: ker / 2,
		ElemBytes: 2,
	}
}

// WithStride returns a copy of c with both strides set to s.
func (c Conv) WithStride(s int) Conv {
	c.StrideH, c.StrideW = s, s
	return c
}

// WithPad returns a copy of c with both paddings set to p.
func (c Conv) WithPad(p int) Conv {
	c.PadH, c.PadW = p, p
	return c
}

// Validate reports whether the shape is well-formed and produces a
// non-empty output.
func (c Conv) Validate() error {
	switch {
	case c.InH <= 0 || c.InW <= 0 || c.InC <= 0:
		return fmt.Errorf("layer %q: input dims must be positive (%dx%dx%d)", c.Name, c.InH, c.InW, c.InC)
	case c.OutC <= 0:
		return fmt.Errorf("layer %q: output channels must be positive (%d)", c.Name, c.OutC)
	case c.KerH <= 0 || c.KerW <= 0:
		return fmt.Errorf("layer %q: kernel dims must be positive (%dx%d)", c.Name, c.KerH, c.KerW)
	case c.StrideH <= 0 || c.StrideW <= 0:
		return fmt.Errorf("layer %q: strides must be positive (%dx%d)", c.Name, c.StrideH, c.StrideW)
	case c.PadH < 0 || c.PadW < 0:
		return fmt.Errorf("layer %q: paddings must be non-negative (%dx%d)", c.Name, c.PadH, c.PadW)
	case c.ElemBytes <= 0:
		return fmt.Errorf("layer %q: element size must be positive (%d)", c.Name, c.ElemBytes)
	}
	if c.OutH() <= 0 || c.OutW() <= 0 {
		return fmt.Errorf("layer %q: empty output %dx%d", c.Name, c.OutH(), c.OutW())
	}
	return nil
}

// OutH returns the output height.
func (c Conv) OutH() int { return outDim(c.InH, c.KerH, c.StrideH, c.PadH) }

// OutW returns the output width.
func (c Conv) OutW() int { return outDim(c.InW, c.KerW, c.StrideW, c.PadW) }

func outDim(in, ker, stride, pad int) int {
	return (in+2*pad-ker)/stride + 1
}

// MACs returns the total multiply-accumulate count of the layer.
func (c Conv) MACs() int64 {
	return int64(c.OutH()) * int64(c.OutW()) * int64(c.OutC) *
		int64(c.InC) * int64(c.KerH) * int64(c.KerW)
}

// InputRange maps an output row/col interval [lo, lo+n) (in one spatial
// dimension) to the half-open input interval it reads, clipped to the
// actual (unpadded) input extent. It returns the first input index and
// the count. ker, stride, pad and in describe that dimension.
func InputRange(lo, n, ker, stride, pad, in int) (start, count int) {
	first := lo*stride - pad
	last := (lo+n-1)*stride - pad + ker - 1
	if first < 0 {
		first = 0
	}
	if last > in-1 {
		last = in - 1
	}
	if last < first {
		return 0, 0
	}
	return first, last - first + 1
}

// String returns a compact human-readable shape summary, e.g.
// "conv1: in 56x56x64, ker 3x3/1, out 56x56x128".
func (c Conv) String() string { return string(c.Append(nil)) }

// Append appends the String form to b. The search cache key is this
// form of every request's shape without its name, so it avoids fmt; a
// zero stride, which Validate rejects, has output extent 0x0.
func (c Conv) Append(b []byte) []byte {
	oh, ow := 0, 0
	if c.StrideH != 0 && c.StrideW != 0 {
		oh, ow = c.OutH(), c.OutW()
	}
	b = append(b, c.Name...)
	for _, f := range [...]struct {
		sep string
		v   int
	}{{": in ", c.InH}, {"x", c.InW}, {"x", c.InC}, {", ker ", c.KerH}, {"x", c.KerW}, {"/", c.StrideH},
		{", out ", oh}, {"x", ow}, {"x", c.OutC}} {
		b = strconv.AppendInt(append(b, f.sep...), int64(f.v), 10)
	}
	return b
}
