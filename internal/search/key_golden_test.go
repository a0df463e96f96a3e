package search

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/spm"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite internal/search/testdata/cache_keys.txt")

// TestCacheKeysUnchanged pins CacheKey and NetworkKey for every preset
// and a default-geometry custom arch against the strings of snapshot
// version 3: snapshots, ring homes and forwarded shares all depend on
// these bytes, so they may only change together with snapshotVersion.
func TestCacheKeysUnchanged(t *testing.T) {
	l := layer.NewConv("l", 14, 14, 64, 64, 3)
	archs := append(arch.Presets(), arch.New("lab", 2, arch.KiB(256), 32))
	var got bytes.Buffer
	for _, cfg := range archs {
		quick := Options{Arch: cfg, Budget: QuickBudget(), Metric: MetricDefault()}
		full := Options{Arch: cfg, Budget: DefaultBudget(), Metric: MetricMinTransfer(),
			Priority: sched.PriorityChainDepth, MemPolicy: spm.PolicySmallestFirst,
			DisableDominance: true, FuseDepth: 1,
			FaultPlan: &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 1000}}}}
		fmt.Fprintln(&got, CacheKey(l, quick))
		fmt.Fprintln(&got, CacheKey(l, full))
		fmt.Fprintln(&got, NetworkKey("vgg16", 4, quick))
		fmt.Fprintln(&got, NetworkKey("resnet50", 0, full))
	}
	const path = "testdata/cache_keys.txt"
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("cache keys changed:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
