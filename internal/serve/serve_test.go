package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/flexer-sched/flexer/internal/arch"
)

// newTestServer returns a quiet server with a small worker pool and
// its httptest front-end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts raw JSON and returns the response.
func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeBody decodes a JSON response body into dst.
func decodeBody(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// smallShape is a layer that schedules in well under a second with the
// quick budget.
const smallShape = `{"in_h": 14, "in_w": 14, "in_c": 64, "out_c": 64, "ker_h": 3}`

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	decodeBody(t, resp, &body)
	if body.Status != "ok" {
		t.Fatalf("status = %q, want ok", body.Status)
	}
	// The unversioned alias is gone.
	legacy, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	legacy.Body.Close()
	if legacy.StatusCode != http.StatusNotFound {
		t.Errorf("GET /healthz = %d, want 404", legacy.StatusCode)
	}
}

func TestPresets(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/presets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/presets = %d, want 200", resp.StatusCode)
	}
	var body PresetsResponse
	decodeBody(t, resp, &body)
	if len(body.Archs) != 8 {
		t.Errorf("archs = %d, want 8 (Table 1)", len(body.Archs))
	}
	if len(body.Networks) != 4 {
		t.Errorf("networks = %d, want 4", len(body.Networks))
	}
	// Every advertised option name is one the schedule endpoints accept.
	for _, o := range []SearchOptionsJSON{
		{Budget: body.Budgets[len(body.Budgets)-1]},
		{Priority: body.Priorities[len(body.Priorities)-1]},
		{MemPolicy: body.MemPolicies[len(body.MemPolicies)-1]},
		{Metric: body.Metrics[len(body.Metrics)-1]},
	} {
		if _, err := resolveOptions(o, arch.Config{}); err != nil {
			t.Errorf("advertised option %+v rejected: %v", o, err)
		}
	}
	if len(body.Priorities) != 4 || len(body.MemPolicies) != 3 || len(body.Budgets) != 2 || len(body.Metrics) != 2 {
		t.Errorf("option enums = %v %v %v %v", body.Budgets, body.Priorities, body.MemPolicies, body.Metrics)
	}
}

// TestMalformedBody covers the 400 paths: syntactically broken JSON,
// unknown fields, trailing garbage, wrong content, and empty body.
func TestMalformedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, c := range map[string]struct {
		body string
		want int
	}{
		"syntax error":   {`{"arch": `, http.StatusBadRequest},
		"unknown field":  {`{"arch": "arch1", "bogus": 1}`, http.StatusBadRequest},
		"trailing data":  {`{"arch": "arch1", "shape": ` + smallShape + `} trailing`, http.StatusBadRequest},
		"wrong type":     {`{"arch": 42}`, http.StatusBadRequest},
		"empty body":     {``, http.StatusBadRequest},
		"missing layer":  {`{"arch": "arch1"}`, http.StatusBadRequest},
		"shape and name": {`{"arch": "arch1", "network": "vgg16", "layer": "conv1_1", "shape": ` + smallShape + `}`, http.StatusBadRequest},
		"unknown arch":   {`{"arch": "arch99", "shape": ` + smallShape + `}`, http.StatusBadRequest},
		"unknown budget": {`{"arch": "arch1", "shape": ` + smallShape + `, "options": {"budget": "lavish"}}`, http.StatusBadRequest},
		"bad shape":      {`{"arch": "arch1", "shape": {"in_h": -3, "in_w": 14, "in_c": 4, "out_c": 4, "ker_h": 3}}`, http.StatusBadRequest},
		"oversized body": {`{"arch": "` + strings.Repeat("a", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		resp := postJSON(t, ts.URL+"/v1/schedule/layer", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, c.want)
		}
		var e ErrorResponse
		decodeBody(t, resp, &e)
		if e.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/schedule/layer")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on schedule endpoint = %d, want 405", resp.StatusCode)
	}
	resp2 := postJSON(t, ts.URL+"/v1/presets", "{}")
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/presets = %d, want 405", resp2.StatusCode)
	}
}

// debugVars decodes the /debug/vars JSON.
func debugVars(t *testing.T, baseURL string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d, want 200", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	decodeBody(t, resp, &vars)
	return vars
}

// TestLayerCacheMissThenHit is the acceptance path: POSTing the same
// VGG16 layer twice returns identical schedules, and /debug/vars shows
// 1 cache miss then 1 cache hit.
func TestLayerCacheMissThenHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// conv4_3 at scale... use an inline small shape named like the
	// acceptance layer to keep the quick budget fast under -race; the
	// cache path is identical for table layers.
	body := `{"arch": "arch1", "network": "vgg16", "layer": "conv5_1", "options": {"budget": "quick"}}`

	var first, second LayerResponse
	resp := postJSON(t, ts.URL+"/v1/schedule/layer", body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("first POST = %d: %s", resp.StatusCode, b)
	}
	decodeBody(t, resp, &first)

	resp = postJSON(t, ts.URL+"/v1/schedule/layer", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d", resp.StatusCode)
	}
	decodeBody(t, resp, &second)

	if first.OoO.LatencyCycles != second.OoO.LatencyCycles ||
		first.OoO.Factors != second.OoO.Factors ||
		first.Static.LatencyCycles != second.Static.LatencyCycles {
		t.Errorf("repeated request returned different schedules:\n%+v\n%+v", first.OoO, second.OoO)
	}
	if first.Layer != "conv5_1" || first.Arch != "arch1" {
		t.Errorf("echoed layer/arch = %q/%q", first.Layer, first.Arch)
	}

	vars := debugVars(t, ts.URL)
	var cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	}
	if err := json.Unmarshal(vars["cache"], &cache); err != nil {
		t.Fatalf("decode cache var %s: %v", vars["cache"], err)
	}
	if cache.Misses != 1 || cache.Hits != 1 {
		t.Errorf("cache = %+v, want 1 miss 1 hit", cache)
	}
	var reqs map[string]int64
	if err := json.Unmarshal(vars["requests_total"], &reqs); err != nil {
		t.Fatal(err)
	}
	if reqs["/v1/schedule/layer"] != 2 {
		t.Errorf("requests_total = %v, want 2 layer requests", reqs)
	}
	var hist struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(vars["search_latency_ms"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 2 {
		t.Errorf("search_latency_ms.count = %d, want 2", hist.Count)
	}
}

// TestTimeoutReturnsPromptly checks the 504 path: a slow
// default-budget search with a tiny timeout must answer quickly with
// an error, and the worker pool must not stay wedged — a follow-up
// quick request succeeds.
func TestTimeoutReturnsPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	slow := `{"arch": "arch1", "network": "vgg16", "layer": "conv3_1",
	          "options": {"budget": "default"}, "timeout_ms": 50}`

	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/schedule/layer", slow)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow request = %d, want 504", resp.StatusCode)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout response took %v, want prompt return", elapsed)
	}
	var e ErrorResponse
	decodeBody(t, resp, &e)
	if e.Error == "" {
		t.Error("504 with empty error message")
	}

	// The single worker slot must free up for the next request.
	quick := `{"arch": "arch1", "shape": ` + smallShape + `, "timeout_ms": 60000}`
	resp2 := postJSON(t, ts.URL+"/v1/schedule/layer", quick)
	if resp2.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp2.Body)
		t.Fatalf("follow-up request = %d: %s (pool wedged?)", resp2.StatusCode, b)
	}
}

// TestNetworkEndpoint schedules a scaled VGG16 end to end and checks
// the aggregate response.
func TestNetworkEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("network search is seconds of work")
	}
	_, ts := newTestServer(t, Config{})
	body := `{"arch": "arch1", "network": "vgg16", "scale": 8, "options": {"budget": "quick"}}`
	resp := postJSON(t, ts.URL+"/v1/schedule/network", body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/schedule/network = %d: %s", resp.StatusCode, b)
	}
	var nr NetworkResponse
	decodeBody(t, resp, &nr)
	if !strings.HasPrefix(nr.Network, "vgg16") || len(nr.Layers) != 13 {
		t.Fatalf("network response %s with %d layers, want vgg16 with 13", nr.Network, len(nr.Layers))
	}
	if nr.OoOCycles <= 0 || nr.StaticCycles <= 0 {
		t.Errorf("non-positive totals: %+v", nr)
	}
	if nr.DistinctLayerShapes <= 0 || nr.DistinctLayerShapes > 13 {
		t.Errorf("distinct_layer_shapes = %d, want 1..13", nr.DistinctLayerShapes)
	}
}

// TestCustomArchAndFullTimeline checks the custom_arch path and that
// full=true includes per-op records.
func TestCustomArchAndFullTimeline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"custom_arch": {"name": "lab", "cores": 2, "spm_kib": 256, "bandwidth_bytes_per_cycle": 32},
	          "shape": ` + smallShape + `, "full": true}`
	resp := postJSON(t, ts.URL+"/v1/schedule/layer", body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("custom arch request = %d: %s", resp.StatusCode, b)
	}
	var lr LayerResponse
	decodeBody(t, resp, &lr)
	if lr.Arch != "lab" {
		t.Errorf("arch = %q, want lab", lr.Arch)
	}
	if len(lr.OoO.Ops) == 0 || len(lr.OoO.Mems) == 0 {
		t.Error("full=true response missing timelines")
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(lr); err != nil {
		t.Fatal(err)
	}
}

// TestCustomArchNameIsALabel sends one shape on two custom archs equal
// but for their names: the second is a hit on the first one's search,
// and each body echoes its own arch.
func TestCustomArchNameIsALabel(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var got [2]LayerResponse
	for i, name := range []string{"a", "b"} {
		body := `{"custom_arch": {"name": "` + name + `", "cores": 2, "spm_kib": 256, "bandwidth_bytes_per_cycle": 32},
		          "shape": ` + smallShape + `}`
		resp := postJSON(t, ts.URL+"/v1/schedule/layer", body)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("arch %s = %d: %s", name, resp.StatusCode, b)
		}
		decodeBody(t, resp, &got[i])
		if got[i].Arch != name {
			t.Errorf("arch %s: body echoes arch %q", name, got[i].Arch)
		}
	}
	if s := srv.cache.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss 1 hit (the name is not the machine)", s)
	}
	if got[0].OoO.LatencyCycles != got[1].OoO.LatencyCycles {
		t.Errorf("OoO cycles %d vs %d for one machine", got[0].OoO.LatencyCycles, got[1].OoO.LatencyCycles)
	}
}
