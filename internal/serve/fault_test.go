package serve

import (
	"net/http"
	"testing"
)

// TestStreamDegradedLayer streams a degraded-mode schedule request
// (fault plan killing one of arch1's two cores) through ?stream=1 and
// checks the terminal result carries the repaired schedule. Run under
// -race this also exercises the progress fan-out concurrently with the
// degraded evaluation.
func TestStreamDegradedLayer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/schedule/layer?stream=1", `{"arch": "arch1", "shape": `+smallShape+`,
		"fault_plan": {"core_down": [{"core": 1, "cycle": 2000}], "dma_derate": [{"from": 2000, "factor": 1.5}]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed degraded POST = %d", resp.StatusCode)
	}
	events := readStream(t, resp.Body)
	if len(events) == 0 || events[len(events)-1].LayerResult == nil {
		t.Fatalf("stream ended without a layer result: %+v", events)
	}
	lr := events[len(events)-1].LayerResult
	if lr.Degraded == nil {
		t.Fatal("no degraded schedule in streamed response")
	}
	if lr.DegradedRatio < 1 {
		t.Errorf("degraded ratio %f < 1", lr.DegradedRatio)
	}
	if lr.Degraded.LatencyCycles < lr.OoO.LatencyCycles {
		t.Errorf("degraded latency %d < nominal %d", lr.Degraded.LatencyCycles, lr.OoO.LatencyCycles)
	}
	progress := 0
	for _, ev := range events {
		if ev.Event == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Error("no progress events observed")
	}
}

func TestLayerFaultPlanValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// arch1 has two cores: a plan killing both must be a 400, as must a
	// core index out of range and a malformed slowdown.
	cases := map[string]string{
		"kills all cores": `{"arch": "arch1", "shape": ` + smallShape + `,
			"fault_plan": {"core_down": [{"core": 0, "cycle": 5}, {"core": 1, "cycle": 5}]}}`,
		"core out of range": `{"arch": "arch1", "shape": ` + smallShape + `,
			"fault_plan": {"core_down": [{"core": 7, "cycle": 5}]}}`,
		"bad slowdown": `{"arch": "arch1", "shape": ` + smallShape + `,
			"fault_plan": {"flaky": [{"core": 0, "from": 10, "to": 20, "slowdown": 0.5}]}}`,
		"inverted window": `{"arch": "arch1", "shape": ` + smallShape + `,
			"fault_plan": {"dma_derate": [{"from": 20, "to": 10, "factor": 2}]}}`,
	}
	for name, body := range cases {
		resp := postJSON(t, ts.URL+"/v1/schedule/layer", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// A valid plan on the non-streaming endpoint returns the degraded
	// block.
	ok := `{"arch": "arch1", "shape": ` + smallShape + `,
		"fault_plan": {"core_down": [{"core": 1, "cycle": 1000}]}}`
	resp := postJSON(t, ts.URL+"/v1/schedule/layer", ok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid fault_plan: status %d", resp.StatusCode)
	}
	var lr LayerResponse
	decodeBody(t, resp, &lr)
	if lr.Degraded == nil || lr.DegradedRatio < 1 {
		t.Errorf("degraded block missing or ratio %f < 1", lr.DegradedRatio)
	}
}

func TestNetworkFaultPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"arch": "arch1", "network": "vgg16", "scale": 8,
		"fault_plan": {"flaky": [{"core": 0, "from": 0, "to": 100000000, "slowdown": 2}]}}`
	resp := postJSON(t, ts.URL+"/v1/schedule/network", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var nr NetworkResponse
	decodeBody(t, resp, &nr)
	if nr.DegradedCycles < nr.OoOCycles {
		t.Errorf("degraded total %d < nominal %d", nr.DegradedCycles, nr.OoOCycles)
	}
	if nr.DegradedRatio < 1 {
		t.Errorf("degraded ratio %f < 1", nr.DegradedRatio)
	}
	for _, l := range nr.Layers {
		if l.DegradedCycles <= 0 {
			t.Errorf("layer %s has no degraded cycles", l.Layer)
		}
	}
}
