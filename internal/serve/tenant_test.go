package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// tenantGranted returns how many grants the named tenant has been
// billed for, or -1 if the scheduler has never seen it.
func tenantGranted(s *Server, name string) int64 {
	for _, ts := range s.admit.Stats().Tenants {
		if ts.Name == name {
			return ts.Granted
		}
	}
	return -1
}

// postJSONTenant posts raw JSON with an X-Flexer-Tenant header.
func postJSONTenant(t *testing.T, url, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestTenantResolution checks the billing identity order: body field
// over header over the server default — and that each shows up in the
// per-tenant accounting and the tenants expvar. Each request asks for a
// new shape, so each searches; a hit is billed to no tenant.
func TestTenantResolution(t *testing.T) {
	srv, ts := newTestServer(t, Config{DefaultTenant: "housecat"})
	url := ts.URL + "/v1/schedule/layer"
	shapeFor := func(outC int, tenant string) string {
		shape := testShape(outC)
		b, err := json.Marshal(LayerRequest{Arch: "arch1", Shape: &shape, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// No tenant anywhere: billed to the configured default.
	if resp := postJSON(t, url, shapeFor(16, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("default-tenant POST = %d", resp.StatusCode)
	}
	if got := tenantGranted(srv, "housecat"); got != 1 {
		t.Errorf("default tenant granted = %d, want 1", got)
	}

	// Header names the tenant.
	if resp := postJSONTenant(t, url, "header-co", shapeFor(24, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("header-tenant POST = %d", resp.StatusCode)
	}
	if got := tenantGranted(srv, "header-co"); got != 1 {
		t.Errorf("header tenant granted = %d, want 1", got)
	}

	// Body field wins over the header.
	if resp := postJSONTenant(t, url, "header-co", shapeFor(32, "body-co")); resp.StatusCode != http.StatusOK {
		t.Fatalf("body-tenant POST = %d", resp.StatusCode)
	}
	if got := tenantGranted(srv, "body-co"); got != 1 {
		t.Errorf("body tenant granted = %d, want 1", got)
	}
	if got := tenantGranted(srv, "header-co"); got != 1 {
		t.Errorf("header tenant granted after body override = %d, want still 1", got)
	}

	// A hit takes no grant: its tenant is never seen.
	if resp := postJSONTenant(t, url, "hit-co", shapeFor(16, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("hit POST = %d", resp.StatusCode)
	}
	if got := tenantGranted(srv, "hit-co"); got != -1 {
		t.Errorf("hit tenant granted = %d, want never seen", got)
	}

	// All three appear in the tenants expvar.
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Tenants []admission.TenantStats `json:"tenants"`
	}
	decodeBody(t, resp, &vars)
	seen := map[string]bool{}
	for _, ts := range vars.Tenants {
		seen[ts.Name] = true
	}
	for _, want := range []string{"housecat", "header-co", "body-co"} {
		if !seen[want] {
			t.Errorf("tenants expvar missing %q (have %v)", want, vars.Tenants)
		}
	}
}

// TestPerTenant429State checks that shedding is per tenant: a tenant
// at its queue bound is shed with its own queue view in the 429 body,
// while another tenant's requests still queue.
func TestPerTenant429State(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueueDepth: 1})
	url := ts.URL + "/v1/schedule/layer"

	// alpha occupies the worker, then fills its queue of one.
	hold := func(tenant string) (context.CancelFunc, chan *http.Response) {
		ctx, cancel := context.WithCancel(context.Background())
		ch := make(chan *http.Response, 1)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(slowBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(tenantHeader, tenant)
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
	cancel1, done1 := hold("alpha")
	defer cancel1()
	waitFor(t, "alpha to hold the worker", func() bool {
		return srv.metrics.searching.Value() == 1
	})
	cancel2, done2 := hold("alpha")
	defer cancel2()
	waitFor(t, "alpha to fill its queue", func() bool {
		return srv.admit.Stats().Queued == 1
	})

	// alpha's third request is shed with alpha's queue view.
	resp := postJSONTenant(t, url, "alpha", slowBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("alpha burst = %d: %s, want 429", resp.StatusCode, b)
	}
	var e ErrorResponse
	decodeBody(t, resp, &e)
	if e.State == nil || e.State.Tenant == nil {
		t.Fatalf("429 body missing tenant state: %+v", e)
	}
	ten := e.State.Tenant
	if ten.Name != "alpha" || ten.Queued != 1 || ten.QueueLimit != 1 || ten.Position != 2 {
		t.Errorf("tenant state = %+v, want alpha queued 1 of limit 1 at position 2", ten)
	}

	// beta is not at its bound: its request queues instead of shedding.
	cancel3, done3 := hold("beta")
	defer cancel3()
	waitFor(t, "beta to queue despite alpha's full queue", func() bool {
		return srv.admit.Stats().Queued == 2
	})

	cancel1()
	cancel2()
	cancel3()
	<-done1
	<-done2
	<-done3
}

// TestStreamPreemptionEndToEnd is the serving-layer determinism
// acceptance path: with one worker, an interactive layer request
// preempts a streaming network sweep, cancelling its grant; the
// sweep reports a preempted progress event, requeues, restarts, and
// its final result is bit-identical to an uninterrupted control run.
func TestStreamPreemptionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("network search is seconds of work")
	}
	// Full size: about 0.2 s of search at one worker, in tilings of a
	// few milliseconds each. The interactive request reaches the queue
	// within milliseconds of the sweep's first progress event, so a
	// cancellation point always follows it. At scale 4 the whole sweep
	// was ~40 ms and sometimes finished first.
	netBody := `{"arch": "arch1", "network": "vgg16",
	             "options": {"budget": "quick"}, "timeout_ms": 300000, "tenant": "sweeps"}`

	// Control: the same sweep on a separate server, never interrupted.
	// It runs first: beside the preempted sweep it would hold the second
	// core, and every goroutine hop of the interactive request's trip
	// would wait for a scheduler time slice.
	_, controlTS := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, controlTS.URL+"/v1/schedule/network", netBody)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("control POST = %d: %s", resp.StatusCode, b)
	}
	var control NetworkResponse
	decodeBody(t, resp, &control)

	// Preempted run: stream the sweep, then stab it with an interactive
	// layer request once it is searching.
	srv, ts := newTestServer(t, Config{Workers: 1})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule/network?stream=1", strings.NewReader(netBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(stream.Body)
		t.Fatalf("stream POST = %d: %s", stream.StatusCode, b)
	}

	var (
		got          *NetworkResponse
		sawPreempted bool
		stabbed      bool
	)
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "progress":
			if ev.Preempted {
				sawPreempted = true
			}
			if !stabbed {
				// The sweep is on the worker; an interactive request must
				// preempt it at its next cancellation point.
				stabbed = true
				quick := `{"arch": "arch1", "shape": ` + smallShape + `, "tenant": "dash", "timeout_ms": 60000}`
				r := postJSON(t, ts.URL+"/v1/schedule/layer", quick)
				if r.StatusCode != http.StatusOK {
					b, _ := io.ReadAll(r.Body)
					t.Fatalf("interactive stab = %d: %s", r.StatusCode, b)
				}
			}
		case "result":
			got = ev.NetworkResult
		case "error":
			t.Fatalf("stream ended in error: %+v", ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if got == nil {
		t.Fatal("stream ended without a result event")
	}
	if !sawPreempted {
		t.Error("no progress event with preempted=true; the sweep was never preempted")
	}
	if n := srv.metrics.requeued.Value(); n < 1 {
		t.Errorf("requests_requeued_total = %d, want >= 1", n)
	}
	if n := srv.metrics.preempted.Value(); n < 1 {
		t.Errorf("requests_preempted_total = %d, want >= 1", n)
	}

	// Bit-identical to the uninterrupted control run.
	if got.OoOCycles != control.OoOCycles || got.StaticCycles != control.StaticCycles ||
		got.OoOTrafficBytes != control.OoOTrafficBytes || got.StaticTrafficBytes != control.StaticTrafficBytes {
		t.Errorf("totals after preemption (%d %d %d %d) differ from control (%d %d %d %d)",
			got.OoOCycles, got.StaticCycles, got.OoOTrafficBytes, got.StaticTrafficBytes,
			control.OoOCycles, control.StaticCycles, control.OoOTrafficBytes, control.StaticTrafficBytes)
	}
	if len(got.Layers) != len(control.Layers) {
		t.Fatalf("layer count %d vs control %d", len(got.Layers), len(control.Layers))
	}
	for i, g := range got.Layers {
		c := control.Layers[i]
		if g.OoOCycles != c.OoOCycles || g.StaticCycles != c.StaticCycles ||
			g.Tiling != c.Tiling || g.StaticOrder != c.StaticOrder {
			t.Errorf("layer %s: preempted run (%d cyc, %q, %q) differs from control (%d cyc, %q, %q)",
				g.Layer, g.OoOCycles, g.Tiling, g.StaticOrder, c.OoOCycles, c.Tiling, c.StaticOrder)
		}
	}
}

// TestPreemptedWaiterLeavesAtOnce: a sweep whose layer search has
// coalesced onto another caller's in-flight search of the same shape
// gives up its slot as soon as an interactive arrival preempts it —
// while that leader is still held, not when it finishes — and completes
// after its requeue.
func TestPreemptedWaiterLeavesAtOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, SearchParallelism: 1})
	cfg, err := resolveArch("arch1", nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := resolveNetwork("vgg16", 8)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := srv.searchOptions(SearchOptionsJSON{Budget: "quick"}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The leader: a search of the sweep's first layer, off the worker
	// pool, held in flight by its first progress event.
	started, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	t.Cleanup(func() { unhold.Do(func() { close(release) }) })
	leader := opts
	leader.Progress = func(search.ProgressEvent) { hold.Do(func() { close(started); <-release }) }
	leaderDone := make(chan error, 1)
	go func() {
		l := n.Layers[0]
		_, err := srv.cache.Layer(context.Background(), search.CacheKey(l, leader), l, leader)
		leaderDone <- err
	}()
	<-started

	type reply struct {
		code int
		err  error
	}
	sweep := make(chan reply, 1)
	go func() {
		body := `{"arch": "arch1", "network": "vgg16", "scale": 8, "options": {"budget": "quick"}, "timeout_ms": 300000, "tenant": "sweeps"}`
		resp, err := http.Post(ts.URL+"/v1/schedule/network", "application/json", strings.NewReader(body))
		if err != nil {
			sweep <- reply{err: err}
			return
		}
		resp.Body.Close()
		sweep <- reply{code: resp.StatusCode}
	}()
	waitFor(t, "the sweep to coalesce onto the held leader", func() bool { return srv.cache.Stats().CoalescedHits >= 1 })

	quick := `{"arch": "arch1", "shape": ` + smallShape + `, "tenant": "dash", "timeout_ms": 10000}`
	if r := postJSON(t, ts.URL+"/v1/schedule/layer", quick); r.StatusCode != http.StatusOK {
		t.Fatalf("interactive request beside the held leader = %d, want 200 (the preempted sweep kept its slot)", r.StatusCode)
	}
	if n := srv.metrics.preempted.Value(); n != 1 {
		t.Errorf("requests_preempted_total = %d, want 1", n)
	}

	unhold.Do(func() { close(release) })
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if r := <-sweep; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("requeued sweep = %d, %v; want 200", r.code, r.err)
	}
	if n := srv.metrics.requeued.Value(); n != 1 {
		t.Errorf("requests_requeued_total = %d, want 1", n)
	}
}

// serveFake pushes a job with the given run function through the
// schedule pipeline, unary or streamed, and returns what it wrote.
func serveFake(srv *Server, stream bool, run func(context.Context, attempt) (*bytes.Buffer, error)) *httptest.ResponseRecorder {
	url := "/v1/schedule/layer"
	if stream {
		url += "?stream=1"
	}
	rec := httptest.NewRecorder()
	srv.serveJob(rec, httptest.NewRequest(http.MethodPost, url, nil), func() (job, error) {
		return job{
			adm:  admission.Request{Tier: admission.TierInteractive},
			hist: srv.metrics.latency,
			run:  run,
		}, nil
	})
	return rec
}

// TestPanicReleasesSlot checks the panic-safe release path: a search
// that panics becomes a 500 carrying the panic value, the worker slot
// comes back, and the next request runs normally.
func TestPanicReleasesSlot(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})

	rec := serveFake(srv, false, func(context.Context, attempt) (*bytes.Buffer, error) {
		panic("kaboom")
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking search wrote %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "kaboom") {
		t.Errorf("500 body = %q, want the panic value", rec.Body)
	}
	if got := srv.metrics.panics.Value(); got != 1 {
		t.Errorf("search_panics_total = %d, want 1", got)
	}
	if got := srv.metrics.searching.Value(); got != 0 {
		t.Errorf("searching gauge = %d after panic, want 0", got)
	}

	// The single slot must be back: a normal search completes.
	rec = serveFake(srv, false, func(context.Context, attempt) (*bytes.Buffer, error) {
		return encodeJSON(&LayerResponse{Layer: "ok"}), nil
	})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"layer": "ok"`) {
		t.Fatalf("post-panic search = %d %q; want 200 (slot leaked?)", rec.Code, rec.Body)
	}
}

// TestErrorTaxonomy asserts every error class twice from one table
// row: as the status and body of a plain response, and as the terminal
// event of a stream that had already committed to 200. Both come from
// the one classification, so they must agree field for field.
func TestErrorTaxonomy(t *testing.T) {
	shed := &admission.QueueFullError{Tenant: "t", Queued: 1, Limit: 1, Position: 2}
	for _, tc := range []struct {
		name       string
		run        func(context.Context, attempt) (*bytes.Buffer, error)
		status     int
		text       string
		retryAfter int
		state      bool
	}{
		{name: "malformed", status: http.StatusBadRequest, text: "nope",
			run: func(context.Context, attempt) (*bytes.Buffer, error) { return nil, badf("nope") }},
		{name: "shed", status: http.StatusTooManyRequests, text: "server overloaded", retryAfter: 1, state: true,
			run: func(context.Context, attempt) (*bytes.Buffer, error) { return nil, shed }},
		{name: "panic", status: http.StatusInternalServerError, text: "kaboom",
			run: func(context.Context, attempt) (*bytes.Buffer, error) { panic("kaboom") }},
		{name: "deadline", status: http.StatusGatewayTimeout, text: "timed out", state: true,
			run: func(context.Context, attempt) (*bytes.Buffer, error) {
				return nil, context.DeadlineExceeded
			}},
		{name: "cancelled", status: 499, text: "request cancelled",
			run: func(context.Context, attempt) (*bytes.Buffer, error) { return nil, context.Canceled }},
		{name: "infeasible", status: http.StatusUnprocessableEntity, text: "no feasible tiling",
			run: func(context.Context, attempt) (*bytes.Buffer, error) {
				return nil, errors.New("search: no feasible tiling")
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServer(t, Config{Workers: 1})

			rec := serveFake(srv, false, tc.run)
			if rec.Code != tc.status {
				t.Fatalf("unary status = %d, want %d", rec.Code, tc.status)
			}
			var body ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("unary body %q: %v", rec.Body, err)
			}
			if !strings.Contains(body.Error, tc.text) {
				t.Errorf("unary error = %q, want it to mention %q", body.Error, tc.text)
			}
			if body.RetryAfterSeconds != tc.retryAfter {
				t.Errorf("retry_after_seconds = %d, want %d", body.RetryAfterSeconds, tc.retryAfter)
			}
			wantHeader := ""
			if tc.retryAfter > 0 {
				wantHeader = strconv.Itoa(tc.retryAfter)
			}
			if got := rec.Header().Get("Retry-After"); got != wantHeader {
				t.Errorf("Retry-After = %q, want %q", got, wantHeader)
			}
			if (body.State != nil) != tc.state {
				t.Errorf("state present = %v, want %v", body.State != nil, tc.state)
			}
			if tc.name == "shed" && (body.State.Tenant == nil || body.State.Tenant.Position != 2) {
				t.Errorf("shed state = %+v, want the tenant's queue view", body.State)
			}

			rec = serveFake(srv, true, tc.run)
			if rec.Code != http.StatusOK {
				t.Fatalf("streamed status = %d, want 200 (the stream had committed)", rec.Code)
			}
			events := readStream(t, rec.Body)
			if len(events) != 1 {
				t.Fatalf("stream has %d events, want only the terminal one", len(events))
			}
			want := StreamEvent{Event: "error", Status: tc.status, Error: body.Error,
				RetryAfterSeconds: body.RetryAfterSeconds, State: body.State}
			if !reflect.DeepEqual(events[0], want) {
				t.Errorf("terminal event = %+v, want the unary response's fields %+v", events[0], want)
			}
		})
	}
}

// TestRetryAfterRecoversFromOutlier checks the decayed-mean fix: one
// cold multi-minute sweep must not inflate Retry-After hints forever.
// After a burst of fast requests the hint returns to the floor even
// though the lifetime mean stays huge.
func TestRetryAfterRecoversFromOutlier(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})

	srv.metrics.latency.observe(4 * time.Minute)
	if ra := srv.retryAfter(); ra < 30*time.Second {
		t.Fatalf("retryAfter right after outlier = %v, want a large hint", ra)
	}
	for i := 0; i < 40; i++ {
		srv.metrics.latency.observe(50 * time.Millisecond)
	}

	var published struct {
		MeanMS float64 `json:"mean_ms"`
	}
	if err := json.Unmarshal([]byte(srv.metrics.latency.String()), &published); err != nil {
		t.Fatal(err)
	}
	if published.MeanMS < 5000 {
		t.Errorf("lifetime mean_ms = %.0f, want still dominated by the outlier", published.MeanMS)
	}
	if dm := srv.metrics.latency.decayedMeanMS(); dm > 1000 {
		t.Errorf("decayedMeanMS = %.0f after fast burst, want < 1000 (recovered)", dm)
	}
	if ra := srv.retryAfter(); ra > 2*time.Second {
		t.Errorf("retryAfter = %v after fast burst, want back near the 1s floor", ra)
	}
}
