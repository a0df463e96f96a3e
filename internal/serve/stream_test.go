package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// readStream decodes every NDJSON event of a ?stream=1 response.
func readStream(t *testing.T, body io.Reader) []StreamEvent {
	t.Helper()
	var events []StreamEvent
	dec := json.NewDecoder(body)
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return events
			}
			t.Fatalf("decode stream event %d: %v", len(events), err)
		}
		events = append(events, ev)
	}
}

// TestStreamLayer checks the NDJSON contract on the layer endpoint: a
// cold streamed request answers 200 with application/x-ndjson, emits
// at least one progress event before the terminal result, and the
// result matches the non-streaming payload shape.
func TestStreamLayer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/schedule/layer?stream=1",
		`{"arch": "arch1", "shape": `+smallShape+`}`)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("streamed POST = %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson; charset=utf-8" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	events := readStream(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("stream has %d events, want >= 2 (progress + result)", len(events))
	}
	last := events[len(events)-1]
	if last.Event != "result" || last.LayerResult == nil {
		t.Fatalf("terminal event = %+v, want a layer result", last)
	}
	if last.LayerResult.OoO.LatencyCycles <= 0 || last.LayerResult.Arch != "arch1" {
		t.Errorf("bad layer result payload: %+v", last.LayerResult)
	}
	progress := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Event != "progress" {
			t.Errorf("non-terminal event %q, want progress", ev.Event)
		}
		if ev.CandidatesDone > 0 && ev.CandidatesTotal <= 0 {
			t.Errorf("progress event with done but no total: %+v", ev)
		}
		progress++
	}
	if progress < 1 {
		t.Fatal("no progress events before the terminal result")
	}

	vars := debugVars(t, ts.URL)
	var total int64
	if err := json.Unmarshal(vars["progress_events_total"], &total); err != nil {
		t.Fatalf("progress_events_total: %v", err)
	}
	if total != int64(progress) {
		t.Errorf("progress_events_total = %d, want %d (events actually written)", total, progress)
	}
}

// TestStreamLayerCacheHit checks that a streamed request served from
// the warm cache still emits a progress event (the cache-hit notice)
// before its result.
func TestStreamLayerCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"arch": "arch1", "shape": ` + smallShape + `}`
	if resp := postJSON(t, ts.URL+"/v1/schedule/layer", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up POST = %d", resp.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/v1/schedule/layer?stream=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed POST = %d", resp.StatusCode)
	}
	events := readStream(t, resp.Body)
	if len(events) != 2 {
		t.Fatalf("cache-hit stream has %d events, want 2 (cache-hit notice + result)", len(events))
	}
	if !events[0].CacheHit {
		t.Errorf("first event %+v, want cache_hit notice", events[0])
	}
	if events[1].Event != "result" || events[1].LayerResult == nil {
		t.Errorf("terminal event %+v, want result", events[1])
	}
}

// TestStreamNetwork is the acceptance path: a streamed network request
// yields at least one progress event (with network-level counters)
// before the terminal result, which matches the non-streaming shape.
func TestStreamNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("network search is seconds of work")
	}
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/schedule/network?stream=1",
		`{"arch": "arch1", "network": "vgg16", "scale": 8, "options": {"budget": "quick"}}`)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("streamed network POST = %d: %s", resp.StatusCode, b)
	}
	events := readStream(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("stream has %d events, want progress before result", len(events))
	}
	last := events[len(events)-1]
	if last.Event != "result" || last.NetworkResult == nil {
		t.Fatalf("terminal event %+v, want a network result", last)
	}
	if len(last.NetworkResult.Layers) != 13 || last.NetworkResult.OoOCycles <= 0 {
		t.Errorf("bad network result: %d layers, %d cycles",
			len(last.NetworkResult.Layers), last.NetworkResult.OoOCycles)
	}
	layerDone := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Event != "progress" {
			t.Fatalf("non-terminal event %q before result", ev.Event)
		}
		if ev.LayersTotal != 13 {
			t.Errorf("progress event layers_total = %d, want 13", ev.LayersTotal)
		}
		if ev.LayerDone {
			layerDone++
		}
	}
	if layerDone != 13 {
		t.Errorf("layer-done events = %d, want 13", layerDone)
	}
}

// TestStreamTimeout checks the mid-stream failure path: once the
// response has committed to NDJSON, a deadline becomes a terminal
// error event with the 504 status the plain endpoint would have used.
func TestStreamTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/schedule/network?stream=1",
		`{"arch": "arch1", "network": "vgg16", "options": {"budget": "default"}, "timeout_ms": 150}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed POST = %d, want 200 (the stream had already committed)", resp.StatusCode)
	}
	events := readStream(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	last := events[len(events)-1]
	if last.Event != "error" || last.Status != http.StatusGatewayTimeout {
		t.Fatalf("terminal event %+v, want error with status 504", last)
	}
	if last.Error == "" || last.State == nil {
		t.Errorf("timeout event missing message or state: %+v", last)
	}
}

// TestStreamBadRequestStaysJSON checks that failures caught before the
// stream starts (malformed bodies, unknown names) keep their plain
// JSON error responses and real HTTP statuses.
func TestStreamBadRequestStaysJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/schedule/network?stream=1", `{"network": "nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown network streamed = %d, want 400", resp.StatusCode)
	}
	var e ErrorResponse
	decodeBody(t, resp, &e)
	if e.Error == "" {
		t.Error("400 with empty error body")
	}
}

// TestScheduleCoalescedConcurrent is the acceptance test for request
// coalescing end to end: 8 concurrent identical schedule requests
// against a cold server run exactly one underlying search, with every
// other request served as a coalesced or plain cache hit; all eight
// responses carry the same schedule.
func TestScheduleCoalescedConcurrent(t *testing.T) {
	// Enough worker slots that all 8 requests are admitted at once:
	// coalescing must come from the cache, not the admission queue.
	srv, ts := newTestServer(t, Config{Workers: 8, MaxQueueDepth: 16})
	body := `{"arch": "arch1", "network": "vgg16", "layer": "conv5_1", "options": {"budget": "quick"}}`

	const n = 8
	var wg sync.WaitGroup
	responses := make([]LayerResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/schedule/layer", "application/json",
				strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs[i] = errors.New(resp.Status + ": " + string(b))
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if responses[i].OoO.LatencyCycles != responses[0].OoO.LatencyCycles ||
			responses[i].OoO.Factors != responses[0].OoO.Factors {
			t.Errorf("response %d schedule differs from response 0", i)
		}
	}
	s := srv.Cache().Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 underlying search for %d concurrent requests", s.Misses, n)
	}
	if got := s.Hits + s.CoalescedHits; got != n-1 {
		t.Errorf("hits+coalesced = %d, want %d", got, n-1)
	}
}

// TestAwaitPrefersFinishedOutcome pins the rule both request modes now
// share: a search that finished in the same instant its context ended
// reports its result, not the context error.
func TestAwaitPrefersFinishedOutcome(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan searchOutcome, 1)
	// select picks among ready cases at random, so try often enough to
	// take both the done and the ctx.Done branch.
	result := new(bytes.Buffer)
	for i := 0; i < 64; i++ {
		done <- searchOutcome{body: result}
		if o := await(ctx, done, &streamSink{}); o.err != nil || o.body != result {
			t.Fatalf("await = %+v, want the finished outcome", o)
		}
	}
	if o := await(ctx, done, &streamSink{}); !errors.Is(o.err, context.Canceled) {
		t.Fatalf("await with nothing finished = %+v, want the context error", o)
	}
}
