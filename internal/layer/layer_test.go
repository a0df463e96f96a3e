package layer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOutputDims(t *testing.T) {
	cases := []struct {
		name               string
		c                  Conv
		wantOutH, wantOutW int
	}{
		{"same-pad 3x3", NewConv("a", 56, 56, 8, 8, 3), 56, 56},
		{"same-pad 5x5", NewConv("b", 28, 28, 8, 8, 5), 28, 28},
		{"1x1 no pad", NewConv("c", 14, 14, 8, 8, 1).WithPad(0), 14, 14},
		{"stride 2 same pad", NewConv("d", 56, 56, 8, 8, 3).WithStride(2), 28, 28},
		{"7x7 stride 2 pad 3", NewConv("e", 224, 224, 3, 64, 7).WithStride(2).WithPad(3), 112, 112},
		{"3x3 stride 2 no pad", NewConv("f", 224, 224, 3, 64, 3).WithStride(2).WithPad(0), 111, 111},
		{"rect input", Conv{Name: "g", InH: 10, InW: 20, InC: 1, OutC: 1, KerH: 3, KerW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, ElemBytes: 2}, 10, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.c.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := tc.c.OutH(); got != tc.wantOutH {
				t.Errorf("OutH = %d, want %d", got, tc.wantOutH)
			}
			if got := tc.c.OutW(); got != tc.wantOutW {
				t.Errorf("OutW = %d, want %d", got, tc.wantOutW)
			}
		})
	}
}

// The tensor sizes in bytes, which only tests ask for.
func (c Conv) inputBytes() int64 {
	return int64(c.InH) * int64(c.InW) * int64(c.InC) * int64(c.ElemBytes)
}

func (c Conv) weightBytes() int64 {
	return int64(c.KerH) * int64(c.KerW) * int64(c.InC) * int64(c.OutC) * int64(c.ElemBytes)
}

func (c Conv) outputBytes() int64 {
	return int64(c.OutH()) * int64(c.OutW()) * int64(c.OutC) * int64(c.ElemBytes)
}

func TestByteSizesAndMACs(t *testing.T) {
	c := NewConv("x", 4, 5, 6, 7, 3) // fp16
	if got, want := c.inputBytes(), int64(4*5*6*2); got != want {
		t.Errorf("InputBytes = %d, want %d", got, want)
	}
	if got, want := c.weightBytes(), int64(3*3*6*7*2); got != want {
		t.Errorf("WeightBytes = %d, want %d", got, want)
	}
	if got, want := c.outputBytes(), int64(4*5*7*2); got != want {
		t.Errorf("OutputBytes = %d, want %d", got, want)
	}
	if got, want := c.MACs(), int64(4*5*7*6*3*3); got != want {
		t.Errorf("MACs = %d, want %d", got, want)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	good := NewConv("ok", 8, 8, 4, 4, 3)
	cases := []struct {
		name   string
		mutate func(*Conv)
	}{
		{"zero input height", func(c *Conv) { c.InH = 0 }},
		{"zero input channels", func(c *Conv) { c.InC = 0 }},
		{"zero output channels", func(c *Conv) { c.OutC = 0 }},
		{"zero kernel", func(c *Conv) { c.KerH = 0 }},
		{"zero stride", func(c *Conv) { c.StrideW = 0 }},
		{"negative pad", func(c *Conv) { c.PadH = -1 }},
		{"zero elem bytes", func(c *Conv) { c.ElemBytes = 0 }},
		{"kernel larger than padded input", func(c *Conv) { c.InH = 2; c.KerH = 5; c.PadH = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := good
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", c)
			}
		})
	}
}

func TestInputRangeExamples(t *testing.T) {
	// Output rows [0,4) of a 3x3 stride-1 pad-1 conv read input rows
	// [0,5) after clipping the padded row -1.
	start, n := InputRange(0, 4, 3, 1, 1, 16)
	if start != 0 || n != 5 {
		t.Errorf("InputRange(0,4,3,1,1,16) = (%d,%d), want (0,5)", start, n)
	}
	// Interior block: output rows [4,8) read input rows [3,9).
	start, n = InputRange(4, 4, 3, 1, 1, 16)
	if start != 3 || n != 6 {
		t.Errorf("interior = (%d,%d), want (3,6)", start, n)
	}
	// Last block clips at the bottom edge.
	start, n = InputRange(12, 4, 3, 1, 1, 16)
	if start != 11 || n != 5 {
		t.Errorf("last = (%d,%d), want (11,5)", start, n)
	}
	// Stride 2: output rows [0,2) read input rows [0,4) with pad 0.
	start, n = InputRange(0, 2, 3, 2, 0, 16)
	if start != 0 || n != 5 {
		t.Errorf("stride2 = (%d,%d), want (0,5)", start, n)
	}
}

// TestInputRangeCoverage checks that each block's input range covers
// every input row its output rows actually read (with strides larger
// than the kernel, rows between taps are legitimately never read, so
// the property is per-read coverage, not contiguity).
func TestInputRangeCoverage(t *testing.T) {
	check := func(out8, ker8, stride8, pad8, blk8 uint8) bool {
		out := int(out8%32) + 1
		ker := int(ker8%5) + 1
		stride := int(stride8%3) + 1
		pad := int(pad8 % 3)
		blk := int(blk8%8) + 1
		// Input size implied by the output shape equation.
		in := (out-1)*stride + ker - 2*pad
		if in < 1 {
			return true // not a valid shape; skip
		}
		for lo := 0; lo < out; lo += blk {
			n := blk
			if lo+n > out {
				n = out - lo
			}
			start, cnt := InputRange(lo, n, ker, stride, pad, in)
			// Every input row read by an output row of the block must
			// lie inside [start, start+cnt).
			for r := lo; r < lo+n; r++ {
				for tap := 0; tap < ker; tap++ {
					row := r*stride - pad + tap
					if row < 0 || row >= in {
						continue // padding
					}
					if row < start || row >= start+cnt {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestInputRangeWithinBounds checks the returned range never leaves the
// input tensor.
func TestInputRangeWithinBounds(t *testing.T) {
	check := func(lo8, n8, ker8, stride8, pad8, in8 uint8) bool {
		lo := int(lo8 % 64)
		n := int(n8%16) + 1
		ker := int(ker8%7) + 1
		stride := int(stride8%3) + 1
		pad := int(pad8 % 4)
		in := int(in8%64) + 1
		start, cnt := InputRange(lo, n, ker, stride, pad, in)
		if cnt == 0 {
			return start == 0
		}
		return start >= 0 && start+cnt <= in
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWithStrideAndPadReturnCopies(t *testing.T) {
	c := NewConv("x", 8, 8, 4, 4, 3)
	s := c.WithStride(2)
	if c.StrideH != 1 || s.StrideH != 2 || s.StrideW != 2 {
		t.Errorf("WithStride mutated receiver or failed: %+v %+v", c, s)
	}
	p := c.WithPad(0)
	if c.PadH != 1 || p.PadH != 0 || p.PadW != 0 {
		t.Errorf("WithPad mutated receiver or failed: %+v %+v", c, p)
	}
}

func TestStringContainsShape(t *testing.T) {
	c := NewConv("conv3_1", 56, 56, 128, 256, 3)
	s := c.String()
	for _, frag := range []string{"conv3_1", "56x56x128", "3x3", "56x56x256"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
}

// TestAppendMatchesFmt pins Append (and String, built on it) to a
// Sprintf form, over random shapes with zero and negative fields.
func TestAppendMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := func() int { return rng.Intn(300) - 20 }
	for i := 0; i < 2000; i++ {
		c := Conv{Name: fmt.Sprint("l<", i, ">"), InH: dim(), InW: dim(), InC: dim(), OutC: dim(), KerH: dim(), KerW: dim(),
			StrideH: dim(), StrideW: dim(), PadH: dim(), PadW: dim(), ElemBytes: dim()}
		if c.StrideH == 0 || c.StrideW == 0 {
			// The Sprintf divided by zero here; the layer is invalid.
			c.StrideH = 0
			if s := c.String(); !strings.HasSuffix(s, fmt.Sprintf("/0, out 0x0x%d", c.OutC)) {
				t.Errorf("zero-stride String() = %q", s)
			}
			continue
		}
		want := fmt.Sprintf("%s: in %dx%dx%d, ker %dx%d/%d, out %dx%dx%d",
			c.Name, c.InH, c.InW, c.InC, c.KerH, c.KerW, c.StrideH, c.OutH(), c.OutW(), c.OutC)
		if got := c.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := string(c.Append([]byte("pre|"))); got != "pre|"+want {
			t.Fatalf("Append = %q, want %q", got, "pre|"+want)
		}
	}
}
