package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// updateGolden rewrites testdata/golden from the running code instead
// of comparing against it. The committed files were generated at the
// commit before the schedule pipeline was unified, so a diff here means
// the wire changed.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/serve/testdata/golden")

// elapsedRE matches the only wall-clock field of a schedule response.
var elapsedRE = regexp.MustCompile(`"elapsed_ms": ?[0-9.e+-]+`)

// goldenWire renders what a client sees of one response — status, the
// headers the API documents, and the body with elapsed time zeroed.
func goldenWire(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d\n", resp.StatusCode)
	for _, h := range []string{"Content-Type", "Retry-After", "X-Content-Type-Options"} {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(&b, "%s: %s\n", h, v)
		}
	}
	b.WriteByte('\n')
	b.Write(elapsedRE.ReplaceAll(body, []byte(`"elapsed_ms":0`)))
	return b.Bytes()
}

// checkGolden compares got with testdata/golden/<name>.txt byte for
// byte (or rewrites the file under -update-golden).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire differs from the golden copy\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// holdOnlySlot takes the server's single worker slot directly from the
// admission scheduler, so schedule requests queue behind it without a
// slow search having to run.
func holdOnlySlot(t *testing.T, srv *Server) {
	t.Helper()
	g, err := srv.admit.Acquire(context.Background(), admission.Request{Tenant: "holder", Tier: admission.TierInteractive})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Release)
}

// poisonCache installs a snapshot entry without schedules under the
// key of body's layer search, so serving it panics while the response
// is built: the one way to reach the 500 path over HTTP.
func poisonCache(t *testing.T, srv *Server, req LayerRequest) {
	t.Helper()
	cfg, err := resolveArch(req.Arch, req.CustomArch)
	if err != nil {
		t.Fatal(err)
	}
	l, err := resolveLayer(req)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := resolveOptions(req.Options, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	enc := gob.NewEncoder(&snap)
	for _, v := range []any{
		struct {
			Magic   string
			Version int
		}{"flexer-cache-snapshot", 3},
		1,
		struct {
			Key    string
			Result search.LayerResult
		}{Key: search.CacheKey(l, opts), Result: search.LayerResult{Layer: l}},
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := srv.Cache().LoadFrom(&snap); err != nil || n != 1 {
		t.Fatalf("load poisoned snapshot = %d, %v", n, err)
	}
}

// TestGoldenWire pins the bytes of the schedule endpoints: hits on both
// endpoints, a streamed hit's event sequence, and one response per
// error class.
func TestGoldenWire(t *testing.T) {
	layerBody := `{"arch": "arch1", "shape": ` + smallShape + `}`
	netBody := `{"arch": "arch1", "network": "vgg16", "scale": 8, "options": {"budget": "quick"}}`

	t.Run("hits", func(t *testing.T) {
		// One search worker: "candidates" counts the tilings scheduled
		// to completion rather than pruned or abandoned, which with more
		// workers depends on which tiling finishes first. The golden
		// files were written at one worker too; they pin the request
		// that fills the entry's memo and both served from it.
		_, ts := newTestServer(t, Config{SearchParallelism: 1})
		if resp := postJSON(t, ts.URL+"/v1/schedule/network", netBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up POST /v1/schedule/network = %d", resp.StatusCode)
		}
		checkGolden(t, "layer_hit", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/layer", layerBody)))
		checkGolden(t, "layer_hit", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/layer", layerBody)))
		checkGolden(t, "network_hit", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/network", netBody)))
		checkGolden(t, "layer_hit_stream", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/layer?stream=1", layerBody)))
	})

	t.Run("400", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		checkGolden(t, "error_400", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/layer",
			`{"arch": "arch99", "shape": `+smallShape+`}`)))
	})

	t.Run("422", func(t *testing.T) {
		// A 31x31 kernel tile alone outgrows a 1 KiB scratchpad.
		_, ts := newTestServer(t, Config{})
		checkGolden(t, "error_422", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/layer",
			`{"custom_arch": {"name": "tiny", "cores": 1, "spm_kib": 1, "bandwidth_bytes_per_cycle": 32},
			  "shape": {"name": "bigker", "in_h": 32, "in_w": 32, "in_c": 1, "out_c": 1, "ker_h": 31}}`)))
	})

	t.Run("429", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, MaxQueueDepth: 1})
		holdOnlySlot(t, srv)
		cancel, queued := postAsync(t, ts.URL+"/v1/schedule/layer", layerBody)
		waitFor(t, "one request to queue", func() bool { return srv.admit.Stats().Queued == 1 })
		checkGolden(t, "error_429", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/layer", layerBody)))
		cancel()
		<-queued
	})

	t.Run("504", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1})
		holdOnlySlot(t, srv)
		checkGolden(t, "error_504", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/layer",
			`{"arch": "arch1", "shape": `+smallShape+`, "timeout_ms": 30}`)))
	})

	t.Run("500", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1})
		poisonCache(t, srv, LayerRequest{Arch: "arch1", Shape: &ConvJSON{InH: 14, InW: 14, InC: 64, OutC: 64, KerH: 3}})
		checkGolden(t, "error_500", goldenWire(t, postJSON(t, ts.URL+"/v1/schedule/layer", layerBody)))
		if got := srv.metrics.searching.Value(); got != 0 {
			t.Errorf("searching gauge = %d after the panic, want 0", got)
		}
		// The only slot must be back: another layer schedules normally.
		if resp := postJSON(t, ts.URL+"/v1/schedule/layer",
			`{"arch": "arch2", "shape": `+smallShape+`}`); resp.StatusCode != http.StatusOK {
			t.Errorf("request after the panic = %d, want 200 (slot leaked?)", resp.StatusCode)
		}
	})
}
