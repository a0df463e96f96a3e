package serve

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/flexer-sched/flexer/internal/cluster"
)

// Hit-path benchmarks: one warm request through the handler with a
// recorder (no TCP), so allocs/op is the server's share of a hit plus
// the recorder and the request. docs/PERFORMANCE.md "PR 17" has the
// numbers these reached; hit_allocs_test.go holds the unary layer and
// network ones down.

const (
	hitLayerBody   = `{"arch": "arch1", "shape": ` + smallShape + `}`
	hitNetworkBody = `{"arch": "arch1", "network": "vgg16", "scale": 8}`
	// A full-timeline body is encoded per request, not memoised; on this
	// small scratchpad the layer is hundreds of tile operations, 72 KB.
	hitFullBody = `{"custom_arch": {"name": "tiny", "cores": 2, "spm_kib": 32, "bandwidth_bytes_per_cycle": 32}, "full": true,
		"shape": {"in_h": 28, "in_w": 28, "in_c": 64, "out_c": 64, "ker_h": 3}}`
)

// hitPoster returns a function that posts body to path on h and fails
// tb on anything but a 200; its first call, made here, warms the cache.
func hitPoster(tb testing.TB, h http.Handler, path, body string) func() *httptest.ResponseRecorder {
	tb.Helper()
	post := func() *httptest.ResponseRecorder {
		rec := postRec(h, path, body)
		if rec.Code != http.StatusOK {
			tb.Fatalf("POST %s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	post()
	return post
}

func benchmarkHit(b *testing.B, path, body string) {
	srv := New(Config{SearchParallelism: 1, Log: log.New(io.Discard, "", 0)})
	post := hitPoster(b, srv.Handler(), path, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

func BenchmarkLayerHit(b *testing.B)   { benchmarkHit(b, "/v1/schedule/layer", hitLayerBody) }
func BenchmarkFullHit(b *testing.B)    { benchmarkHit(b, "/v1/schedule/layer", hitFullBody) }
func BenchmarkStreamHit(b *testing.B)  { benchmarkHit(b, "/v1/schedule/layer?stream=1", hitLayerBody) }
func BenchmarkNetworkHit(b *testing.B) { benchmarkHit(b, "/v1/schedule/network", hitNetworkBody) }

// BenchmarkForwardedHit is a layer hit asked of a node that is not the
// key's home: route, one loopback hop to the home node, copy back.
func BenchmarkForwardedHit(b *testing.B) {
	nodes := newServeCluster(b, 2)
	waitPeerState(b, nodes[0].cl, nodes[1].url, cluster.StateHealthy)
	body := shapeBody(b, shapeHomedOn(b, nodes[0].cl, nodes[1].url, 1))
	post := hitPoster(b, nodes[0].srv.Handler(), "/v1/schedule/layer", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if got := nodes[0].cl.Forwards(); got < int64(b.N) {
		b.Fatalf("%d of %d requests were forwarded", got, b.N)
	}
}
