package tile_test

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/tile"
)

var enumerated []tile.Factors

// BenchmarkEnumerate measures the tiling enumeration of one layer search
// under the quick and the default budget's limits, on a layer with a few
// hundred viable tilings (a squeezenet/8 fire expand) and one with a few
// thousand (vgg16/4 conv3_1) — the sample's ranking is what grows.
func BenchmarkEnumerate(b *testing.B) {
	pick := func(network string, scale int, name string) layer.Conv {
		n, err := nets.ByName(network)
		if err != nil {
			b.Fatal(err)
		}
		l, err := n.Scale(scale).Layer(name)
		if err != nil {
			b.Fatal(err)
		}
		return l
	}
	for _, bc := range []struct {
		name string
		l    layer.Conv
		lim  tile.EnumLimits
	}{
		{"fire/quick", pick("squeezenet", 8, "fire2_expand3x3"), tile.EnumLimits{SPMBytes: 128 << 10, Cores: 4, MaxOps: 512, MaxTilings: 4, MaxValuesPerDim: 6}},
		{"fire/default", pick("squeezenet", 8, "fire2_expand3x3"), tile.EnumLimits{SPMBytes: 128 << 10, Cores: 4, MaxOps: 4096, MaxTilings: 24, MaxValuesPerDim: 10}},
		{"conv3_1/quick", pick("vgg16", 4, "conv3_1"), tile.EnumLimits{SPMBytes: 128 << 10, Cores: 4, MaxOps: 512, MaxTilings: 4, MaxValuesPerDim: 6}},
		{"conv3_1/default", pick("vgg16", 4, "conv3_1"), tile.EnumLimits{SPMBytes: 128 << 10, Cores: 4, MaxOps: 4096, MaxTilings: 24, MaxValuesPerDim: 10}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enumerated = tile.Enumerate(bc.l, bc.lim)
			}
			if len(enumerated) != bc.lim.MaxTilings {
				b.Fatalf("%d tilings, want a full sample of %d", len(enumerated), bc.lim.MaxTilings)
			}
		})
	}
}
