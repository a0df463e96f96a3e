//go:build !race

package serve

import (
	"io"
	"log"
	"testing"
)

// TestHitAllocs holds a unary layer hit through the handler under a
// ceiling about a fifth above what PR 17 reached (58 allocations and
// 11.2 KB an operation in BenchmarkLayerHit, of which the recorder and
// httptest.NewRequest are some 5.5 KB; the parent commit took 126 and
// 18.4 KB), so that a change which re-encodes, re-keys or pre-allocates
// per request fails here and not in a later benchmark run. The bytes
// are BenchmarkLayerHit's own figure, an average over its thousands of
// hits, so what another goroutine allocates meanwhile does not decide
// the test.
func TestHitAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 70, 13400
	srv := New(Config{SearchParallelism: 1, Log: log.New(io.Discard, "", 0)})
	post := hitPoster(t, srv.Handler(), "/v1/schedule/layer", hitLayerBody)
	if n := testing.AllocsPerRun(200, func() { post() }); n > maxAllocs {
		t.Errorf("a layer hit makes %v allocations, ceiling %d", n, maxAllocs)
	}
	r := testing.Benchmark(BenchmarkLayerHit)
	if b := r.AllocedBytesPerOp(); r.N == 0 || b > maxBytes {
		t.Errorf("a layer hit allocates %d bytes over %d runs, ceiling %d", b, r.N, maxBytes)
	}
}
