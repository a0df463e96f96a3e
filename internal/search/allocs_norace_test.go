//go:build !race

package search

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/layer"
)

// TestCacheKeyAllocs holds the fingerprint to the allocations it needs:
// the returned string, and nothing else while the key fits the stack
// buffer it is assembled in.
func TestCacheKeyAllocs(t *testing.T) {
	l := layer.NewConv("l", 14, 14, 64, 64, 3)
	opts := quickOpts(t, "arch1")
	if n := testing.AllocsPerRun(100, func() { _ = CacheKey(l, opts) }); n > 1 {
		t.Errorf("CacheKey allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = NetworkKey("vgg16", 8, opts) }); n > 1 {
		t.Errorf("NetworkKey allocates %v times, want 1", n)
	}
}
