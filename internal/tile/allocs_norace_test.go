//go:build !race

package tile_test

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/tile"
)

// TestEnumerateAllocs holds the enumeration to the bytes its sample
// needs: on vgg16 conv3_1 under the default budget's limits on a 4-core
// 256 KiB machine, 24 tilings kept of 2 669 viable ones, a call that
// built every viable tiling allocated 406 944 B, and one that built its
// four candidate-value lists afresh 2 808 B; one that keeps a key
// per tiling and the value lists in reused buffers allocates the sample
// and the ranks it reads, 983 B, under 1 KiB.
func TestEnumerateAllocs(t *testing.T) {
	n, err := nets.ByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.Layer("conv3_1")
	if err != nil {
		t.Fatal(err)
	}
	lim := tile.EnumLimits{SPMBytes: 256 << 10, Cores: 4, MaxOps: 4096, MaxTilings: 24, MaxValuesPerDim: 10}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enumerated = tile.Enumerate(l, lim)
		}
	})
	if got := r.AllocedBytesPerOp(); got > 1<<10 {
		t.Errorf("Enumerate allocates %d B a call, want at most 1 KiB", got)
	}
}
