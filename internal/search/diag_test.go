package search

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/layer"
)

// TestDiagHeavyLayer reports OoO-vs-static behaviour on a layer with
// real memory pressure (VGG16 conv3_1 shape on arch1). It asserts only
// sanity; the numbers are logged for inspection during development.
func TestDiagHeavyLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic search is slow")
	}
	cfg, _ := arch.Preset("arch1")
	l := layer.NewConv("conv3_1", 56, 56, 128, 256, 3)
	b := QuickBudget()
	b.MaxTilings = 8
	lr, err := SearchLayer(l, Options{Arch: cfg, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lr.Candidates {
		if c.Static.LatencyCycles == 0 { // every static run of a surviving candidate abandoned: see LayerResult
			t.Logf("tiling %-14s ooo: lat=%-9d traf=%-9d | static: every run abandoned",
				c.Factors, c.OoO.LatencyCycles, c.OoO.TrafficBytes())
			continue
		}
		t.Logf("tiling %-14s ooo: lat=%-9d traf=%-9d | static(%-22s): lat=%-9d traf=%-9d",
			c.Factors, c.OoO.LatencyCycles, c.OoO.TrafficBytes(),
			c.StaticOrder.Name, c.Static.LatencyCycles, c.Static.TrafficBytes())
	}
	t.Logf("BEST ooo %s lat=%d traf=%d | static %s lat=%d traf=%d | speedup=%.3f reduction=%.3f",
		lr.BestOoO.Factors, lr.BestOoO.LatencyCycles, lr.BestOoO.TrafficBytes(),
		lr.BestStatic.Factors, lr.BestStatic.LatencyCycles, lr.BestStatic.TrafficBytes(),
		lr.Speedup(), lr.TrafficReduction())
}
