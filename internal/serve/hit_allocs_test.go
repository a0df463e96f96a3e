//go:build !race

package serve

import (
	"io"
	"log"
	"testing"
)

// TestHitAllocs holds a unary layer hit and a unary network hit through
// the handler under ceilings about a fifth above what the lookup stage
// reached (BenchmarkLayerHit 44 allocations and 10.3 KB an operation, of
// which the recorder and httptest.NewRequest are some 5.5 KB;
// BenchmarkNetworkHit 45 and 16.1 KB), so that a change which
// re-encodes, re-keys, re-searches, admits or pre-allocates per request
// fails here and not in a later benchmark run. The bytes are each
// benchmark's own figure, an average over its thousands of hits, so
// what another goroutine allocates meanwhile does not decide the test.
func TestHitAllocs(t *testing.T) {
	for _, c := range []struct {
		name, path, body    string
		bench               func(*testing.B)
		maxAllocs, maxBytes int64
	}{
		{"layer", "/v1/schedule/layer", hitLayerBody, BenchmarkLayerHit, 53, 12400},
		{"network", "/v1/schedule/network", hitNetworkBody, BenchmarkNetworkHit, 54, 19300},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := New(Config{SearchParallelism: 1, Log: log.New(io.Discard, "", 0)})
			post := hitPoster(t, srv.Handler(), c.path, c.body)
			if n := testing.AllocsPerRun(200, func() { post() }); n > float64(c.maxAllocs) {
				t.Errorf("a %s hit makes %v allocations, ceiling %d", c.name, n, c.maxAllocs)
			}
			r := testing.Benchmark(c.bench)
			if b := r.AllocedBytesPerOp(); r.N == 0 || b > c.maxBytes {
				t.Errorf("a %s hit allocates %d bytes over %d runs, ceiling %d", c.name, b, r.N, c.maxBytes)
			}
		})
	}
}
