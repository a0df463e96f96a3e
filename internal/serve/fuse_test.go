package serve

import (
	"io"
	"net/http"
	"reflect"
	"testing"
)

// TestNetworkFuseDepthValidation checks a negative fuse_depth is a 400.
func TestNetworkFuseDepthValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"arch": "arch1", "network": "squeezenet", "scale": 8, "options": {"fuse_depth": -1}}`
	resp := postJSON(t, ts.URL+"/v1/schedule/network", body)
	if resp.StatusCode != http.StatusBadRequest {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("negative fuse_depth = %d, want 400: %s", resp.StatusCode, b)
	}
}

// TestNetworkFuseDepthCacheRoundTrip checks fused and layerwise
// requests for the same workload share cached layer results, since the
// fusion pass runs on top of them: a repeat of the layerwise request
// and the fused variant are both served entirely from cache, and a
// layerwise request after the fused one returns the first one's totals
// — the fused sweep did not poison the shared entries.
func TestNetworkFuseDepthCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("network searches are seconds of work")
	}
	_, ts := newTestServer(t, Config{})
	post := func(options string) NetworkResponse {
		t.Helper()
		body := `{"arch": "arch1", "network": "squeezenet", "scale": 8, "options": ` + options + `}`
		resp := postJSON(t, ts.URL+"/v1/schedule/network", body)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /v1/schedule/network = %d: %s", resp.StatusCode, b)
		}
		var nr NetworkResponse
		decodeBody(t, resp, &nr)
		return nr
	}

	layerwise := post(`{"budget": "quick"}`)
	if layerwise.DistinctLayerShapes <= 0 {
		t.Fatalf("first layerwise request hit a cold cache with %d misses", layerwise.DistinctLayerShapes)
	}
	if layerwise.FuseDepth != 0 || len(layerwise.Segments) != 0 || len(layerwise.Boundaries) != 0 {
		t.Errorf("layerwise response carries fusion state: %+v", layerwise)
	}

	repeat := post(`{"budget": "quick"}`)
	if repeat.DistinctLayerShapes != 0 {
		t.Errorf("repeated layerwise request missed the cache %d times, want 0", repeat.DistinctLayerShapes)
	}

	fused := post(`{"budget": "quick", "fuse_depth": 1}`)
	if fused.FuseDepth != 1 {
		t.Errorf("fuse_depth not echoed: %+v", fused.FuseDepth)
	}
	if fused.DistinctLayerShapes != 0 {
		t.Errorf("fused request missed the cache %d times, want 0 (layer entries are shared)", fused.DistinctLayerShapes)
	}
	if len(fused.Boundaries) == 0 {
		t.Error("fused response records no boundary decisions")
	}
	// Whether any boundary actually fused is workload-dependent; the
	// totals must be consistent either way.
	if len(fused.Segments) == 0 {
		if fused.OoOCycles != layerwise.OoOCycles || fused.OoOTrafficBytes != layerwise.OoOTrafficBytes {
			t.Errorf("no segments accepted but totals differ: %d/%d vs %d/%d",
				fused.OoOCycles, fused.OoOTrafficBytes, layerwise.OoOCycles, layerwise.OoOTrafficBytes)
		}
	} else {
		if fused.OoOCycles >= layerwise.OoOCycles || fused.OoOTrafficBytes >= layerwise.OoOTrafficBytes {
			t.Errorf("accepted segments without a strict win: %d/%d vs %d/%d",
				fused.OoOCycles, fused.OoOTrafficBytes, layerwise.OoOCycles, layerwise.OoOTrafficBytes)
		}
		for _, s := range fused.Segments {
			if s.Cycles >= s.LayerwiseCycles || s.TrafficBytes >= s.LayerwiseBytes {
				t.Errorf("segment %s..%s lacks a strict win: %+v", s.FirstLayer, s.LastLayer, s)
			}
		}
	}

	after := post(`{"budget": "quick"}`)
	if after.DistinctLayerShapes != 0 {
		t.Errorf("layerwise request after the fused one missed the cache %d times, want 0", after.DistinctLayerShapes)
	}
	after.ElapsedMS, after.DistinctLayerShapes = layerwise.ElapsedMS, layerwise.DistinctLayerShapes
	if !reflect.DeepEqual(after, layerwise) {
		t.Errorf("layerwise request after the fused one differs from the first:\n%+v\nwant\n%+v", after, layerwise)
	}
}
