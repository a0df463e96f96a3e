package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// slowBody is a schedule request that holds a worker for a long time
// (a full-size default-budget search takes minutes) but aborts
// promptly when its client goes away.
const slowBody = `{"arch": "arch1", "network": "vgg16", "layer": "conv3_1",
                   "options": {"budget": "default"}, "timeout_ms": 60000}`

// postAsync fires a POST with its own cancellable context and returns
// the cancel func plus a channel yielding the response (nil on error).
func postAsync(t *testing.T, url, body string) (context.CancelFunc, chan *http.Response) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan *http.Response, 1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			ch <- nil
			return
		}
		resp.Body.Close()
		ch <- resp
	}()
	return cancel, ch
}

// TestSheddingReturns429 is the admission-control acceptance path:
// with one worker and a queue bound of one, a burst of three schedule
// requests gets one running, one queued, and the third shed promptly
// with 429 + Retry-After — not a 504 after camping on the semaphore.
func TestSheddingReturns429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueueDepth: 1})

	// First request occupies the single worker slot.
	cancel1, done1 := postAsync(t, ts.URL+"/v1/schedule/layer", slowBody)
	defer cancel1()
	waitFor(t, "first request to hold the worker", func() bool {
		return srv.metrics.searching.Value() == 1
	})

	// Second request fills the queue.
	cancel2, done2 := postAsync(t, ts.URL+"/v1/schedule/layer", slowBody)
	defer cancel2()
	waitFor(t, "second request to queue", func() bool {
		return srv.admit.Stats().Queued == 1
	})

	// Third request must be shed immediately.
	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/schedule/layer", slowBody)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shed response took %v, want immediate", elapsed)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("burst request = %d: %s, want 429", resp.StatusCode, b)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	var e ErrorResponse
	decodeBody(t, resp, &e)
	if e.Error == "" || e.RetryAfterSeconds != secs {
		t.Errorf("shed body = %+v, want error text and retry_after_seconds = %d", e, secs)
	}
	if e.State == nil {
		t.Fatal("shed body missing state")
	}
	if e.State.QueueLimit != 1 || e.State.Queued != 1 || e.State.Workers != 1 {
		t.Errorf("shed state = %+v, want queued 1 of limit 1 on 1 worker", e.State)
	}
	if got := srv.metrics.shed.Value(); got != 1 {
		t.Errorf("requests_shed_total = %d, want 1", got)
	}

	// Cancel the blockers; the pool must recover for a normal request.
	cancel1()
	cancel2()
	<-done1
	<-done2
	waitFor(t, "pool to drain", func() bool {
		return srv.metrics.searching.Value() == 0 && srv.admit.Stats().Queued == 0
	})
	quick := `{"arch": "arch1", "shape": ` + smallShape + `, "timeout_ms": 60000}`
	resp2 := postJSON(t, ts.URL+"/v1/schedule/layer", quick)
	if resp2.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp2.Body)
		t.Fatalf("post-shed request = %d: %s (pool wedged?)", resp2.StatusCode, b)
	}
}

// TestTimeoutBodyReportsState checks graceful degradation on the 504
// path: the error body carries the queue/cache state.
func TestTimeoutBodyReportsState(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	slow := `{"arch": "arch1", "network": "vgg16", "layer": "conv3_1",
	          "options": {"budget": "default"}, "timeout_ms": 50}`
	resp := postJSON(t, ts.URL+"/v1/schedule/layer", slow)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow request = %d, want 504", resp.StatusCode)
	}
	var e ErrorResponse
	decodeBody(t, resp, &e)
	if e.State == nil {
		t.Fatal("504 body missing state")
	}
	if e.State.Workers != 1 {
		t.Errorf("state = %+v, want workers 1", e.State)
	}
}

// TestStatusWriterFlush checks the instrumented writer no longer hides
// http.Flusher: both a direct type assertion and the go1.20
// ResponseController path (via Unwrap) must reach the underlying
// recorder.
func TestStatusWriterFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, code: http.StatusOK}

	f, ok := any(sw).(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}

	rec2 := httptest.NewRecorder()
	sw2 := &statusWriter{ResponseWriter: rec2, code: http.StatusOK}
	if err := http.NewResponseController(sw2).Flush(); err != nil {
		t.Fatalf("ResponseController.Flush: %v", err)
	}
	if !rec2.Flushed {
		t.Error("ResponseController.Flush did not reach the underlying writer")
	}
	if sw2.Unwrap() != rec2 {
		t.Error("Unwrap did not return the wrapped writer")
	}
}

// TestWarmRestartFromSnapshot is the persistence acceptance path: a
// "restarted" server loading the previous instance's -cache-file
// serves the previously-searched layer as a cache hit, recomputing
// nothing.
func TestWarmRestartFromSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.gob")
	body := `{"arch": "arch1", "shape": ` + smallShape + `}`

	s1, ts1 := newTestServer(t, Config{})
	if resp := postJSON(t, ts1.URL+"/v1/schedule/layer", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first instance POST = %d", resp.StatusCode)
	}
	n, err := s1.SaveCacheFile(path)
	if err != nil {
		t.Fatalf("SaveCacheFile: %v", err)
	}
	if n != 1 {
		t.Fatalf("SaveCacheFile wrote %d entries, want 1", n)
	}

	s2, ts2 := newTestServer(t, Config{})
	loaded, err := s2.LoadCacheFile(path)
	if err != nil {
		t.Fatalf("LoadCacheFile: %v", err)
	}
	if loaded != 1 {
		t.Fatalf("LoadCacheFile installed %d entries, want 1", loaded)
	}

	resp := postJSON(t, ts2.URL+"/v1/schedule/layer", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm instance POST = %d", resp.StatusCode)
	}
	var lr LayerResponse
	decodeBody(t, resp, &lr)
	if lr.OoO.LatencyCycles <= 0 {
		t.Errorf("warm response has no schedule: %+v", lr)
	}
	stats := s2.Cache().Stats()
	if stats.Hits != 1 || stats.Misses != 0 {
		t.Errorf("warm instance stats = %+v, want 1 hit 0 misses (no recompute)", stats)
	}
}

// TestLoadCacheFileMissingIsCold checks a daemon's first boot with
// -cache-file pointing at a not-yet-written snapshot.
func TestLoadCacheFileMissingIsCold(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	n, err := s.LoadCacheFile(filepath.Join(t.TempDir(), "nonexistent.gob"))
	if err != nil || n != 0 {
		t.Fatalf("LoadCacheFile(missing) = %d, %v; want 0, nil", n, err)
	}
}

// TestSaveCacheFileAtomic checks the atomic-rename contract: a save
// over an existing snapshot leaves either the old or the new file, and
// no temp litter.
func TestSaveCacheFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.gob")
	s, ts := newTestServer(t, Config{})
	if resp := postJSON(t, ts.URL+"/v1/schedule/layer", `{"arch": "arch1", "shape": `+smallShape+`}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.SaveCacheFile(path); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0] != path {
		t.Fatalf("snapshot dir contains %v, want only %s", entries, path)
	}
}

// TestNetworkDistinctLayersPerRequest checks the per-request miss
// accounting: a network scheduled twice reports its real distinct-
// shape count the first time and zero the second (everything cached),
// instead of a delta of the global miss counter.
func TestNetworkDistinctLayersPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("network search is seconds of work")
	}
	_, ts := newTestServer(t, Config{})
	body := `{"arch": "arch1", "network": "vgg16", "scale": 8, "options": {"budget": "quick"}}`

	var first, second NetworkResponse
	resp := postJSON(t, ts.URL+"/v1/schedule/network", body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("first POST = %d: %s", resp.StatusCode, b)
	}
	decodeBody(t, resp, &first)
	if first.DistinctLayerShapes <= 0 || first.DistinctLayerShapes > 13 {
		t.Errorf("first distinct_layer_shapes = %d, want 1..13", first.DistinctLayerShapes)
	}

	resp = postJSON(t, ts.URL+"/v1/schedule/network", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d", resp.StatusCode)
	}
	decodeBody(t, resp, &second)
	if second.DistinctLayerShapes != 0 {
		t.Errorf("second distinct_layer_shapes = %d, want 0 (fully cached)", second.DistinctLayerShapes)
	}
}
