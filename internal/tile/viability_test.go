package tile

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
)

func TestMinSetFootprintSharingPatterns(t *testing.T) {
	l := layer.NewConv("v", 8, 8, 64, 64, 3)
	f := Factors{OH: 4, OW: 4, OC: 32, IC: 64}
	in, wt, out := operandBytesFast(&l, cutsOf(l, f))
	if in <= 0 || wt <= 0 || out <= 0 {
		t.Fatalf("operand bounds: %d %d %d", in, wt, out)
	}
	got := minSetFootprintFast(&l, cutsOf(l, f), 2)
	shareIn := in + 2*(wt+out)
	shareWt := wt + 2*(in+out)
	want := shareIn
	if shareWt < want {
		want = shareWt
	}
	if got != want {
		t.Errorf("minSetFootprintFast = %d, want %d", got, want)
	}
	// Width 1 degenerates to the single-op footprint.
	if got1 := minSetFootprintFast(&l, cutsOf(l, f), 1); got1 != in+wt+out {
		t.Errorf("width-1 footprint = %d, want %d", got1, in+wt+out)
	}
	// Footprint grows with width.
	if minSetFootprintFast(&l, cutsOf(l, f), 4) <= got {
		t.Error("footprint did not grow with width")
	}
}

// TestEnumerateExcludesUnschedulableWidths: a tiling whose full-width
// set cannot fit even under ideal sharing must not be enumerated.
func TestEnumerateExcludesUnschedulableWidths(t *testing.T) {
	a, _ := arch.Preset("arch5") // 4 cores, 256 KiB
	l := layer.NewConv("v", 7, 7, 512, 512, 3)
	lim := EnumLimits{SPMBytes: a.SPMBytes, Cores: a.Cores, MaxOps: 4096}
	for _, f := range Enumerate(l, lim) {
		if got := minSetFootprintFast(&l, cutsOf(l, f), a.Cores); got > a.SPMBytes {
			t.Errorf("tiling %v enumerated with set footprint %d > SPM %d", f, got, a.SPMBytes)
		}
	}
	// The known-bad tiling from development: 4 ops of 7x3x10x512 need
	// two 90 KiB weight tiles plus activations and cannot share enough.
	bad := Factors{OH: 7, OW: 3, OC: 10, IC: 512}
	if minSetFootprintFast(&l, cutsOf(l, bad), a.Cores) <= a.SPMBytes {
		t.Skip("tiling unexpectedly viable under this model")
	}
	for _, f := range Enumerate(l, lim) {
		if f == bad {
			t.Errorf("unviable tiling %v enumerated", bad)
		}
	}
}

// TestEnumerateMoreCoresFewerTilings: raising the core count can only
// shrink the viable set.
func TestEnumerateMoreCoresFewerTilings(t *testing.T) {
	l := layer.NewConv("v", 14, 14, 256, 256, 3)
	spm := arch.KiB(256)
	counts := make([]int, 0, 3)
	for _, cores := range []int{1, 2, 4} {
		lim := EnumLimits{SPMBytes: spm, Cores: cores, MaxOps: 4096}
		counts = append(counts, len(Enumerate(l, lim)))
	}
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("viable tilings must shrink with cores: %v", counts)
	}
	if counts[2] == 0 {
		t.Error("no viable tilings at 4 cores")
	}
}

// cutsOf returns the cuts of tiling f of l.
func cutsOf(l layer.Conv, f Factors) *Cuts {
	c, _ := CutsOf(l, f, nil)
	return &c
}
