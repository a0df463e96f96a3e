package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flexer-sched/flexer/internal/cluster"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// searchSmall runs the quick search of smallShape on arch1 in cache,
// optionally under a fault plan, and returns the cached lookup.
func searchSmall(t *testing.T, cache *search.Cache, plan *fault.Plan) (*search.LayerResult, string) {
	t.Helper()
	cfg, err := resolveArch("arch1", nil)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := resolveOptions(SearchOptionsJSON{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache, opts.Workers, opts.FaultPlan = cache, 1, plan
	lr, err := search.SearchLayerCtx(context.Background(), ConvJSON{InH: 14, InW: 14, InC: 64, OutC: 64, KerH: 3}.Conv(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return lr, cfg.Name
}

// envelopeInputs returns what the body oracle tests vary per request:
// hostile names, elapsed times across encoding/json's float formats
// (random ones drawn from rng among them) and every routing envelope.
func envelopeInputs(rng *rand.Rand) (names []string, elapsed []float64, routes []routeInfo) {
	names = []string{"", "adhoc", "conv3_1", `quo"te`, `back\slash`, "<script>&amp;</script>", "naïve-層", "tab\there", "nl\nhere",
		"\x00\x1f", "  ", "bad\xffutf8", "~tilde ", strings.Repeat("long", 100)}
	elapsed = []float64{0, 1e-7, 0.25, 1e21, 1e20, 9.999999e20, 1e-6, 9.99e-7, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, 1, 0.001234, 123456.789, 1.5e-9, 1e-10, 3e22, -0.5, -1e-9}
	routes = []routeInfo{{}, {servedBy: "http://10.0.0.1:8080"}, {servedBy: `http://h/?a=<b>&c="d"`, degraded: true}, {degraded: true}}
	for i := 0; i < 300; i++ {
		elapsed = append(elapsed, math.Float64frombits(rng.Uint64()&^(1<<63)), rng.Float64()*math.Pow(10, float64(rng.Intn(40)-12)))
	}
	return names, elapsed, routes
}

// TestLayerBodyMatchesEncoder is the oracle test of the assembled layer
// body: for hostile layer and arch names that change from request to
// request against one memo, elapsed times across encoding/json's float
// formats, every routing envelope, with and without a degraded
// schedule, summary and full, it must equal what the indenting encoder
// makes of buildLayerResponse — and the streamed result line what the
// compact encoder makes of the event.
func TestLayerBodyMatchesEncoder(t *testing.T) {
	cache := search.NewCache()
	nominal, _ := searchSmall(t, cache, nil)
	degraded, _ := searchSmall(t, cache, &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 1000}}})
	if degraded.Degraded == nil {
		t.Fatal("fault-plan search has no degraded schedule")
	}

	rng := rand.New(rand.NewSource(3))
	names, elapsed, routes := envelopeInputs(rng)

	check := func(lr *search.LayerResult, full bool, name string, ms float64, rt routeInfo) {
		t.Helper()
		archName := names[rng.Intn(len(names))]
		if math.IsNaN(ms) || math.IsInf(ms, 0) {
			return // encoding/json rejects them; elapsed time is neither
		}
		named := *lr
		named.Layer.Name = name
		resp := buildLayerResponse(&named, archName, full, ms)
		resp.ServedBy, resp.DegradedRouting = rt.servedBy, rt.degraded
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&resp); err != nil {
			t.Fatal(err)
		}
		got := layerBody(&named, archName, full, ms, rt)
		defer putBuf(got)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("name %q elapsed %v route %+v full %v: body differs from the encoder's\n--- got\n%s--- want\n%s", name, ms, rt, full, got.Bytes(), want.Bytes())
		}

		want.Reset()
		if err := json.NewEncoder(&want).Encode(StreamEvent{Event: "result", LayerResult: &resp}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		(&streamSink{w: rec}).result(`{"event":"result","layer_result":`, got.Bytes())
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("name %q elapsed %v: result event differs from the encoder's\n--- got\n%s--- want\n%s", name, ms, rec.Body.Bytes(), want.Bytes())
		}
	}
	for _, lr := range []*search.LayerResult{nominal, degraded} {
		for _, name := range names {
			for _, rt := range routes {
				check(lr, false, name, elapsed[rng.Intn(len(elapsed))], rt)
			}
		}
		for _, ms := range elapsed {
			check(lr, false, names[rng.Intn(len(names))], ms, routes[rng.Intn(len(routes))])
		}
		check(lr, true, "full <timeline>", 0.5, routes[1])
	}
}

// TestNetworkBodyMatchesEncoder is the oracle test of the assembled
// network body: against one memo per result — layerwise, fused, under a
// fault plan, and with hostile names inside the memo — envelopes that
// change from request to request (hostile network and arch names,
// elapsed times, distinct_layer_shapes, every routing envelope) must
// give what the indenting encoder makes of buildNetworkResponse, and
// the streamed result line what the compact encoder makes of the event.
func TestNetworkBodyMatchesEncoder(t *testing.T) {
	n, err := resolveNetwork("squeezenet", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := resolveArch("arch1", nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := search.NewCache()
	sweep := func(fuseDepth int, plan *fault.Plan) *search.NetworkResult {
		opts, err := resolveOptions(SearchOptionsJSON{FuseDepth: fuseDepth}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache, opts.Workers, opts.FaultPlan = cache, 1, plan
		nr, err := search.SearchNetworkCtx(context.Background(), n, opts)
		if err != nil {
			t.Fatal(err)
		}
		return nr
	}
	layerwise, fused := sweep(0, nil), sweep(1, nil)
	degraded := sweep(0, &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 1000}}})
	if len(fused.Segments) == 0 || degraded.DegradedCycles() == 0 {
		t.Fatalf("fused sweep has %d segments, degraded sweep %d degraded cycles: the memo's optional fields go untested",
			len(fused.Segments), degraded.DegradedCycles())
	}
	rng := rand.New(rand.NewSource(5))
	names, elapsed, routes := envelopeInputs(rng)
	// hostile is fused with a hostile name on every layer and boundary.
	hostile := *fused
	hostile.Layers = make([]*search.LayerResult, len(fused.Layers))
	for i, lr := range fused.Layers {
		named := *lr
		named.Layer.Name = names[i%len(names)]
		hostile.Layers[i] = &named
	}
	hostile.Boundaries = append([]search.BoundaryDecision(nil), fused.Boundaries...)
	for i := range hostile.Boundaries {
		hostile.Boundaries[i].Producer, hostile.Boundaries[i].Consumer = names[i%len(names)], names[(i+1)%len(names)]
	}

	for _, nr := range []*search.NetworkResult{layerwise, fused, degraded, &hostile} {
		memo := networkMemo(nr)
		for i := 0; i < 200; i++ {
			ms := elapsed[rng.Intn(len(elapsed))]
			if math.IsNaN(ms) || math.IsInf(ms, 0) {
				continue // encoding/json rejects them; elapsed time is neither
			}
			rt := routes[rng.Intn(len(routes))]
			env := networkEnvelope{names[rng.Intn(len(names))], names[rng.Intn(len(names))], ms, rng.Intn(3) * rng.Intn(60), rt.servedBy, rt.degraded}
			named := *nr
			named.Network, named.Arch = env.Network, env.Arch
			resp := buildNetworkResponse(&named, env.ElapsedMS)
			resp.DistinctLayerShapes, resp.ServedBy, resp.DegradedRouting = env.DistinctLayerShapes, env.ServedBy, env.DegradedRouting
			want := encodeJSON(&resp)
			got := networkBody(memo, env)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("envelope %+v: body differs from the encoder's\n--- got\n%s--- want\n%s", env, got.Bytes(), want.Bytes())
			}
			var ev bytes.Buffer
			if err := json.NewEncoder(&ev).Encode(StreamEvent{Event: "result", NetworkResult: &resp}); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			(&streamSink{w: rec}).result(`{"event":"result","network_result":`, got.Bytes())
			if !bytes.Equal(rec.Body.Bytes(), ev.Bytes()) {
				t.Fatalf("envelope %+v: result event differs from the encoder's\n--- got\n%s--- want\n%s", env, rec.Body.Bytes(), ev.Bytes())
			}
			putBuf(got)
			putBuf(want)
		}
	}
}

// postRec posts body to path on h and returns the recorded response.
func postRec(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// namedShapeBody is a layer request for testShape(outC) under a name.
func namedShapeBody(name string, outC int) string {
	shape := testShape(outC)
	shape.Name = name
	b, _ := json.Marshal(LayerRequest{Arch: "arch1", Shape: &shape})
	return string(b)
}

// TestMemoKeepsCallersName sends one shape under many layer names,
// interleaved and then concurrently, unary and streamed: every reply
// carries its own request's name, never the one that filled the memo.
func TestMemoKeepsCallersName(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()
	ask := func(name string, stream bool) string {
		path := "/v1/schedule/layer"
		if stream {
			path += "?stream=1"
		}
		rec := postRec(h, path, namedShapeBody(name, 4))
		if rec.Code != http.StatusOK {
			return fmt.Sprintf("status %d: %s", rec.Code, rec.Body)
		}
		if !stream {
			var lr LayerResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
				return err.Error()
			}
			return lr.Layer
		}
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		var ev StreamEvent
		if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil || ev.LayerResult == nil {
			return fmt.Sprintf("terminal event %s: %v", lines[len(lines)-1], err)
		}
		return ev.LayerResult.Layer
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("inter<%d>", i%3)
		if got := ask(name, i%2 == 1); got != name {
			t.Fatalf("request %d named %q came back as %q", i, name, got)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("g%d-%d", g, i)
				if got := ask(name, (g+i)%4 == 0); got != name {
					t.Errorf("request named %q came back as %q", name, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := srv.Cache().Stats(); st.Misses != 1 {
		t.Errorf("cache stats %+v, want the one shape searched once", st)
	}
}

// TestMemoEvictedWithEntry alternates two keys on a server that keeps
// one entry: each request evicts the other's entry and its memo, and
// the replies stay what they first were.
func TestMemoEvictedWithEntry(t *testing.T) {
	srv, _ := newTestServer(t, Config{CacheSize: 1, SearchParallelism: 1})
	h := srv.Handler()
	ask := func(outC int) string {
		rec := postRec(h, "/v1/schedule/layer", namedShapeBody(fmt.Sprint("c", outC), outC))
		if rec.Code != http.StatusOK {
			t.Fatalf("outC %d: status %d: %s", outC, rec.Code, rec.Body)
		}
		return string(elapsedRE.ReplaceAll(rec.Body.Bytes(), []byte(`"elapsed_ms":0`)))
	}
	const other = 5
	first := map[int]string{4: ask(4), other: ask(other)}
	ask(4) // evicts other's entry and leaves shape 4 in
	for round := 0; round < 4; round++ {
		for _, outC := range []int{other, 4} { // the search for the pair left shape 4 in
			before := srv.Cache().Stats()
			if got := ask(outC); got != first[outC] {
				t.Fatalf("round %d: reply for shape %d changed after its entry was evicted\n--- got\n%s--- first\n%s", round, outC, got, first[outC])
			}
			if after := srv.Cache().Stats(); after.Evictions != before.Evictions+1 || after.Misses != before.Misses+1 {
				t.Fatalf("round %d shape %d: stats %+v -> %+v, want one more miss and eviction", round, outC, before, after)
			}
			if got := ask(outC); got != first[outC] {
				t.Fatalf("round %d: hit for shape %d differs from its miss", round, outC)
			}
		}
	}
}

// TestSnapshotUnchangedByHits checks that the memo is no part of a
// snapshot: what a node saves after serving hits is, byte for byte,
// what it would have saved before them.
func TestSnapshotUnchangedByHits(t *testing.T) {
	srv, _ := newTestServer(t, Config{SearchParallelism: 1})
	h := srv.Handler()
	body := namedShapeBody("snap", 4)
	if rec := postRec(h, "/v1/schedule/layer", body); rec.Code != http.StatusOK {
		t.Fatalf("miss: %d %s", rec.Code, rec.Body)
	}
	var before, after bytes.Buffer
	if _, err := srv.Cache().SaveTo(&before); err != nil {
		t.Fatal(err)
	}
	hit := postRec(h, "/v1/schedule/layer", body)
	postRec(h, "/v1/schedule/layer?stream=1", body)
	if _, err := srv.Cache().SaveTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("snapshot after hits (%d bytes) differs from the one before (%d bytes)", after.Len(), before.Len())
	}
	warm, _ := newTestServer(t, Config{SearchParallelism: 1})
	if n, err := warm.Cache().LoadFrom(&after); err != nil || n != 1 {
		t.Fatalf("load snapshot = %d, %v", n, err)
	}
	got := postRec(warm.Handler(), "/v1/schedule/layer", body)
	if a, b := elapsedRE.ReplaceAll(got.Body.Bytes(), nil), elapsedRE.ReplaceAll(hit.Body.Bytes(), nil); !bytes.Equal(a, b) {
		t.Errorf("reply from the loaded snapshot differs\n--- got\n%s--- want\n%s", a, b)
	}
	if st := warm.Cache().Stats(); st.Misses != 0 {
		t.Errorf("warm server stats %+v, want no search", st)
	}
}

// TestJobKeyIsCacheKey holds serve to the contract of search.Cache.Layer,
// which trusts the key its caller hands it: after layer requests —
// unary, streamed, under a fault plan, with options — and a network
// request, the keys the cache holds are exactly search.CacheKey of each
// layer and the options an attempt searches it with.
func TestJobKeyIsCacheKey(t *testing.T) {
	srv, _ := newTestServer(t, Config{SearchParallelism: 1})
	h := srv.Handler()
	cfg, err := resolveArch("arch1", nil)
	if err != nil {
		t.Fatal(err)
	}
	a := attempt{progress: func(search.ProgressEvent) {}}
	want := map[string]bool{}
	post := func(path string, req any, options SearchOptionsJSON, plan *fault.Plan, layers ...layer.Conv) {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if rec := postRec(h, path, string(b)); rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s = %d: %s", path, b, rec.Code, rec.Body)
		}
		opts, err := srv.searchOptions(options, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layers {
			want[search.CacheKey(l, a.options(opts))] = true
		}
	}
	shape := func(outC int) *ConvJSON { s := testShape(outC); s.Name = fmt.Sprint("n", outC); return &s }
	plan := &fault.Plan{CoreDown: []fault.CoreDown{{Core: 1, Cycle: 1000}}}
	minTransfer := SearchOptionsJSON{Priority: "min-transfer"}
	post("/v1/schedule/layer", LayerRequest{Arch: "arch1", Shape: shape(4)}, SearchOptionsJSON{}, nil, shape(4).Conv())
	post("/v1/schedule/layer?stream=1", LayerRequest{Arch: "arch1", Shape: shape(5)}, SearchOptionsJSON{}, nil, shape(5).Conv())
	post("/v1/schedule/layer", LayerRequest{Arch: "arch1", Shape: shape(4), FaultPlan: plan}, SearchOptionsJSON{}, plan, shape(4).Conv())
	post("/v1/schedule/layer?stream=1", LayerRequest{Arch: "arch1", Shape: shape(4), Options: minTransfer}, minTransfer, nil, shape(4).Conv())
	n, err := resolveNetwork("squeezenet", 8)
	if err != nil {
		t.Fatal(err)
	}
	post("/v1/schedule/network", NetworkRequest{Arch: "arch1", Network: "squeezenet", Scale: 8}, SearchOptionsJSON{}, nil, n.Layers...)

	got := map[string]bool{}
	if _, err := srv.Cache().SaveShardTo(io.Discard, func(key string) bool { got[key] = true; return false }); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("no cache entry under the searched options' key %q", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("cache entry under %q, which is no request's CacheKey", k)
		}
	}
}

// blockedWriter is a ResponseWriter whose body writes wait for release.
type blockedWriter struct {
	*httptest.ResponseRecorder
	release chan struct{}
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	<-w.release
	return w.ResponseRecorder.Write(p)
}

// TestStreamQueueDropsBeyondBound floods a stream whose writer is stuck:
// the search must finish without waiting for it, no more events than
// the queue bound (plus the one the writer holds) may survive, and the
// terminal result still goes out last.
func TestStreamQueueDropsBeyondBound(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	w := &blockedWriter{ResponseRecorder: httptest.NewRecorder(), release: make(chan struct{})}
	const flood = 4 * streamEventBuffer
	emitted := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serveJob(w, httptest.NewRequest(http.MethodPost, "/v1/schedule/layer?stream=1", nil), func() (job, error) {
			return job{
				adm:    admission.Request{Tier: admission.TierInteractive},
				hist:   srv.metrics.latency,
				result: `{"event":"result","layer_result":`,
				run: func(_ context.Context, a attempt) (*bytes.Buffer, error) {
					for i := 1; i <= flood; i++ {
						a.progress(search.ProgressEvent{Layer: "flood", CandidatesDone: i, CandidatesTotal: flood})
					}
					close(emitted)
					return encodeJSON(&LayerResponse{Layer: "flood"}), nil
				},
			}, nil
		})
	}()
	select {
	case <-emitted:
	case <-time.After(10 * time.Second):
		t.Fatal("the search blocked on a stream nobody was reading")
	}
	close(w.release)
	<-served

	events := readStream(t, w.Body)
	if n := len(events) - 1; n < streamEventBuffer || n > streamEventBuffer+1 {
		t.Errorf("%d of %d progress events survived, want the queue bound %d (+1 in the writer's hands)", n, flood, streamEventBuffer)
	}
	for i, ev := range events[:len(events)-1] {
		if ev.Event != "progress" || (i > 0 && ev.CandidatesDone <= events[i-1].CandidatesDone) {
			t.Fatalf("event %d = %+v: not progress in emission order", i, ev)
		}
	}
	if last := events[len(events)-1]; last.Event != "result" || last.LayerResult == nil || last.LayerResult.Layer != "flood" {
		t.Errorf("terminal event = %+v, want the result", last)
	}
}

// TestForwardCopiesLargeReply forwards a full-timeline reply several
// times the hop buffer's size: it must arrive whole, byte for byte what
// the home node answers directly.
func TestForwardCopiesLargeReply(t *testing.T) {
	nodes := newServeCluster(t, 2)
	waitPeerState(t, nodes[0].cl, nodes[1].url, cluster.StateHealthy)
	// A scratchpad small enough that the layer is cut into hundreds of
	// tile operations, each a timeline record; homed on node 1.
	tiny := &ArchJSON{Name: "tiny", Cores: 2, SPMKiB: 32, BandwidthBytesPerCycle: 32}
	opts, err := resolveOptions(SearchOptionsJSON{}, tiny.Config())
	if err != nil {
		t.Fatal(err)
	}
	shape := ConvJSON{InH: 28, InW: 28, InC: 64, OutC: 64, KerH: 3}
	for nodes[0].cl.Home(search.CacheKey(shape.Conv(), opts)) != nodes[1].url {
		shape.OutC++
	}
	b, err := json.Marshal(LayerRequest{CustomArch: tiny, Shape: &shape, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	read := func(url string) []byte {
		resp := postJSON(t, url+"/v1/schedule/layer", string(b))
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d, %v", url, resp.StatusCode, err)
		}
		return elapsedRE.ReplaceAll(body, nil)
	}
	direct := read(nodes[1].url)
	forwarded := read(nodes[0].url)
	if len(direct) <= 32<<10 {
		t.Fatalf("full reply is only %d bytes; pick a shape whose timeline outgrows the hop buffer", len(direct))
	}
	if !bytes.Equal(forwarded, direct) {
		t.Errorf("forwarded reply (%d bytes) differs from the home node's (%d bytes)", len(forwarded), len(direct))
	}
	if nodes[0].cl.Forwards() == 0 {
		t.Error("the request was not forwarded")
	}
}
