package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// streamEvents splits an NDJSON body into its events.
func streamEvents(t *testing.T, body []byte) []StreamEvent {
	t.Helper()
	var evs []StreamEvent
	for _, ln := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ev StreamEvent
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestHitsSkipAdmission holds the only worker slot, as a search blocked
// on it would: a layer hit, a streamed layer hit and a network hit are
// still answered at once, within a deadline that queueing would spend,
// and billed to no tenant, while a miss queues until the slot frees.
func TestHitsSkipAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, SearchParallelism: 1})
	layerBody := `{"arch": "arch1", "shape": ` + smallShape
	netBody := `{"arch": "arch1", "network": "squeezenet", "scale": 8`
	if resp := postJSON(t, ts.URL+"/v1/schedule/layer", layerBody+"}"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up layer POST = %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/schedule/network", netBody+"}"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up network POST = %d", resp.StatusCode)
	}
	const asHit = `, "tenant": "hits", "timeout_ms": 2000}`
	layerBody, netBody = layerBody+asHit, netBody+asHit
	g, err := srv.admit.Acquire(context.Background(), admission.Request{Tenant: "holder", Tier: admission.TierInteractive})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			g.Release()
		}
	}()

	for _, c := range []struct{ path, body string }{
		{"/v1/schedule/layer", layerBody},
		{"/v1/schedule/layer?stream=1", layerBody},
		{"/v1/schedule/network", netBody},
	} {
		resp := postJSON(t, ts.URL+c.path, c.body)
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hit POST %s with the slot held = %d: %s", c.path, resp.StatusCode, b)
		}
		if strings.HasSuffix(c.path, "stream=1") {
			evs := streamEvents(t, b)
			if len(evs) != 2 || !evs[0].CacheHit || evs[1].Event != "result" || evs[1].LayerResult == nil {
				t.Errorf("streamed hit events = %+v, want one cache_hit progress event, then the result", evs)
			}
		}
	}
	if got := tenantGranted(srv, "hits"); got != -1 {
		t.Errorf("hits tenant granted = %d, want never seen", got)
	}

	miss, missBody := make(chan int, 1), shapeBody(t, 40)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/schedule/layer", "application/json", strings.NewReader(missBody))
		if err != nil {
			miss <- 0
			return
		}
		resp.Body.Close()
		miss <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.admit.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the miss never queued behind the held slot")
		}
		time.Sleep(time.Millisecond)
	}
	g.Release()
	released = true
	if code := <-miss; code != http.StatusOK {
		t.Errorf("queued miss = %d, want 200 once the slot freed", code)
	}
}

// TestHitDoesNotPreemptSweep: a sweep runs on the only worker slot and
// an interactive request arrives. A miss would preempt the sweep at its
// next cancellation point; a hit takes no slot, so the sweep runs to
// its end untouched.
func TestHitDoesNotPreemptSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("network search is a fraction of a second of work")
	}
	srv, ts := newTestServer(t, Config{Workers: 1})
	hit := `{"arch": "arch1", "shape": ` + smallShape + `, "tenant": "dash", "timeout_ms": 60000}`
	if resp := postJSON(t, ts.URL+"/v1/schedule/layer", hit); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up POST = %d", resp.StatusCode)
	}
	// Full size: about 0.2 s of search at one worker, as in
	// TestStreamPreemptionEndToEnd.
	netBody := `{"arch": "arch1", "network": "vgg16", "options": {"budget": "quick"}, "timeout_ms": 300000, "tenant": "sweeps"}`
	stream := postJSON(t, ts.URL+"/v1/schedule/network?stream=1", netBody)
	if stream.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(stream.Body)
		t.Fatalf("stream POST = %d: %s", stream.StatusCode, b)
	}
	stabbed, result := false, false
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case ev.Preempted:
			t.Error("the sweep was preempted")
		case ev.Event == "error":
			t.Fatalf("stream ended in error: %+v", ev)
		case ev.Event == "result":
			result = true
		case !stabbed && ev.CandidatesDone > 0:
			stabbed = true
			if r := postJSON(t, ts.URL+"/v1/schedule/layer", hit); r.StatusCode != http.StatusOK {
				t.Fatalf("interactive hit during the sweep = %d", r.StatusCode)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if !stabbed || !result {
		t.Fatalf("sweep searched %v, finished %v: the hit never met a running sweep", stabbed, result)
	}
	if got := srv.metrics.preempted.Value(); got != 0 {
		t.Errorf("requests_preempted = %d, want 0", got)
	}
}

// TestStreamedPoisonedHitIsErrorEvent: a hit whose body panics while it
// is built fails in the lookup stage. A streamed request gets what the
// same panic on a worker slot sent: 200, the cache_hit progress event,
// then an "error" event with status 500; the server keeps serving.
func TestStreamedPoisonedHitIsErrorEvent(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	poisonCache(t, srv, LayerRequest{Arch: "arch1", Shape: &ConvJSON{InH: 14, InW: 14, InC: 64, OutC: 64, KerH: 3}})
	resp := postJSON(t, ts.URL+"/v1/schedule/layer?stream=1", `{"arch": "arch1", "shape": `+smallShape+`}`)
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed poisoned hit = %d: %s", resp.StatusCode, b)
	}
	evs := streamEvents(t, b)
	if len(evs) != 2 || !evs[0].CacheHit || evs[1].Event != "error" || evs[1].Status != http.StatusInternalServerError {
		t.Errorf("events = %+v, want a cache_hit progress event, then a 500 error event", evs)
	}
	if got := srv.metrics.panics.Value(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	if resp := postJSON(t, ts.URL+"/v1/schedule/layer", `{"arch": "arch2", "shape": `+smallShape+`}`); resp.StatusCode != http.StatusOK {
		t.Errorf("request after the panic = %d, want 200", resp.StatusCode)
	}
}
