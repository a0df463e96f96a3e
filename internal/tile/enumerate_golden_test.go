package tile_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestEnumerateGolden pins tile.Enumerate for every layer of the four
// layer families the repository benchmark compiles, under the quick and
// the default budget's limits on a 128 KiB four-core machine: the
// tilings, and the order they come back in. Captured with the
// reflection-based sort.Slice / sort.SliceStable in place, so it shows
// that the slices.SortFunc / SortStableFunc that replaced them order
// sampleTilings' score ties and the canonical re-sort the same way.
func TestEnumerateGolden(t *testing.T) {
	want := map[string]string{
		"squeezenet/8": "728 tilings, fnv64a 3f627e37546dda29",
		"vgg16/8":      "364 tilings, fnv64a ad2d0551438b57a1",
		"vgg16/4":      "364 tilings, fnv64a 2df3c8cf05effea1",
		"resnet50/8":   "1484 tilings, fnv64a b056e378e059ea68",
	}
	for _, fam := range []struct {
		network string
		scale   int
	}{{"squeezenet", 8}, {"vgg16", 8}, {"vgg16", 4}, {"resnet50", 8}} {
		n, err := nets.ByName(fam.network)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		tilings := 0
		for _, l := range n.Scale(fam.scale).Layers {
			for _, lim := range []tile.EnumLimits{
				{SPMBytes: 128 << 10, Cores: 4, MaxOps: 512, MaxTilings: 4, MaxValuesPerDim: 6},
				{SPMBytes: 128 << 10, Cores: 4, MaxOps: 4096, MaxTilings: 24, MaxValuesPerDim: 10},
			} {
				for _, f := range tile.Enumerate(l, lim) {
					fmt.Fprintf(h, "%s %v;", l.Name, f)
					tilings++
				}
			}
		}
		name := fmt.Sprintf("%s/%d", fam.network, fam.scale)
		if got := fmt.Sprintf("%d tilings, fnv64a %016x", tilings, h.Sum64()); got != want[name] {
			t.Errorf("%s: got %q, want %q", name, got, want[name])
		}
	}
}
