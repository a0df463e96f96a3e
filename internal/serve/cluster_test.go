package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flexer-sched/flexer/internal/cluster"
	"github.com/flexer-sched/flexer/internal/search"
)

// clusterNode is one in-process flexerd of a test cluster. Its dead
// flag severs every incoming connection without a response — the
// closest in-process stand-in for a crashed process, seen identically
// by peers' health probes and forwarded requests — while its own
// outgoing probes keep running, exactly like a machine cut off by its
// NIC rather than by kill -9 of the prober.
type clusterNode struct {
	url     string
	srv     *Server
	cl      *cluster.Cluster
	ts      *httptest.Server
	dead    atomic.Bool
	handler atomic.Value // http.Handler, set once wiring completes
}

func (n *clusterNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n.dead.Load() {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic(http.ErrAbortHandler)
		}
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
		return
	}
	h, _ := n.handler.Load().(http.Handler)
	if h == nil {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// newServeCluster boots n fully wired flexerd nodes probing each other
// at a test-friendly cadence: suspect after 1 failed probe, down after
// 2, healthy again after 2 successes.
func newServeCluster(t testing.TB, n int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	urls := make([]string, n)
	for i := range nodes {
		nodes[i] = &clusterNode{}
		nodes[i].ts = httptest.NewServer(nodes[i])
		t.Cleanup(nodes[i].ts.Close)
		urls[i] = nodes[i].ts.URL
		nodes[i].url = urls[i]
	}
	quiet := log.New(io.Discard, "", 0)
	for i, node := range nodes {
		cl, err := cluster.New(cluster.Config{
			Self:          urls[i],
			Peers:         urls,
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  250 * time.Millisecond,
			Log:           quiet,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.cl = cl
		node.srv = New(Config{Workers: 2, Cluster: cl, Log: quiet})
		node.handler.Store(node.srv.Handler())
	}
	for _, node := range nodes {
		node.cl.Start()
		t.Cleanup(node.cl.Stop)
	}
	return nodes
}

// waitPeerState polls one node's view of a peer until it reaches want.
func waitPeerState(t testing.TB, cl *cluster.Cluster, peer string, want cluster.State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cl.PeerState(peer) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer %s never reached %v (stuck at %v)", peer, want, cl.PeerState(peer))
}

// testShape is a tiny layer (sub-50ms quick search) distinguished by
// its output-channel count, so tests can mint distinct routing keys.
func testShape(outC int) ConvJSON {
	return ConvJSON{InH: 8, InW: 8, InC: 4, OutC: outC, KerH: 3}
}

// shapeBody is the /v1/schedule/layer request body for testShape(outC).
func shapeBody(t testing.TB, outC int) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"arch": "arch1", "shape": testShape(outC)})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// routingKey reproduces the server's routing fingerprint for
// testShape(outC) under the default arch1 quick options.
func routingKey(t testing.TB, outC int) string {
	t.Helper()
	cfg, err := resolveArch("arch1", nil)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := resolveOptions(SearchOptionsJSON{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return search.CacheKey(testShape(outC).Conv(), opts)
}

// shapeHomedOn scans output-channel counts from lo upward for a shape
// whose routing key is homed on the given peer.
func shapeHomedOn(t testing.TB, cl *cluster.Cluster, peer string, lo int) int {
	t.Helper()
	for outC := lo; outC < lo+200; outC++ {
		if cl.Home(routingKey(t, outC)) == peer {
			return outC
		}
	}
	t.Fatalf("no shape in [%d,%d) homed on %s", lo, lo+200, peer)
	return 0
}

// scheduleLayer posts one layer request and decodes the response,
// failing the test on any non-200.
func scheduleLayer(t *testing.T, url string, outC int) LayerResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/schedule/layer", shapeBody(t, outC))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("schedule outC=%d via %s: status %d: %s", outC, url, resp.StatusCode, b)
	}
	var lr LayerResponse
	decodeBody(t, resp, &lr)
	return lr
}

// TestClusterKillAndRejoinScenario is the end-to-end acceptance run: a
// 3-node cluster serves a mixed workload, one node is killed mid-run
// with zero failed requests and failover counters incrementing, and
// the killed node resumes ownership of its ring segment on rejoin.
func TestClusterKillAndRejoinScenario(t *testing.T) {
	nodes := newServeCluster(t, 3)
	n0, victim, n2 := nodes[0], nodes[1], nodes[2]

	// Phase 1: all healthy. Every response names the key's home as its
	// server and nothing is degraded.
	for outC := 4; outC < 12; outC++ {
		lr := scheduleLayer(t, n0.url, outC)
		if want := n0.cl.Home(routingKey(t, outC)); lr.ServedBy != want {
			t.Errorf("outC=%d served by %s, want home %s", outC, lr.ServedBy, want)
		}
		if lr.DegradedRouting {
			t.Errorf("outC=%d reported degraded routing with every peer up", outC)
		}
	}
	if n0.cl.Forwards() == 0 {
		t.Error("8 distinct keys produced no forwards; ring sharing is broken")
	}

	// Phase 2: kill the victim and keep serving through the detection
	// window. Every request must still succeed — forward failures fall
	// back to a local degraded search, never an error.
	victim.dead.Store(true)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		// Bodies are minted on the test goroutine: shapeBody may Fatal.
		entry := nodes[(w%2)*2].url // alternate node0 / node2
		bodies := make([]string, 5)
		for i := range bodies {
			bodies[i] = shapeBody(t, 20+w*5+i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, body := range bodies {
				errs <- scheduleOnce(entry, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e != "" {
			t.Errorf("mid-kill request failed: %s", e)
		}
	}

	waitPeerState(t, n0.cl, victim.url, cluster.StateDown)
	waitPeerState(t, n2.cl, victim.url, cluster.StateDown)

	// A key homed on the dead victim must still be answered — degraded,
	// with the failover counter incrementing at the routing node.
	victimOutC := shapeHomedOn(t, n0.cl, victim.url, 300)
	before := n0.cl.Failovers()
	lr := scheduleLayer(t, n0.url, victimOutC)
	if !lr.DegradedRouting {
		t.Error("request homed on a down peer was not marked degraded_routing")
	}
	if lr.ServedBy == victim.url {
		t.Errorf("request served by the dead peer %s", victim.url)
	}
	if n0.cl.Failovers() <= before {
		t.Error("failover counter did not increment")
	}
	vars := debugVars(t, n0.url)
	var failedOver int64
	if err := json.Unmarshal(vars["requests_failed_over_total"], &failedOver); err != nil || failedOver == 0 {
		t.Errorf("expvar requests_failed_over_total = %s (err %v), want > 0", vars["requests_failed_over_total"], err)
	}

	// Phase 3: the victim rejoins after consecutive probe successes and
	// resumes exact ownership of its ring segment.
	victim.dead.Store(false)
	waitPeerState(t, n0.cl, victim.url, cluster.StateHealthy)
	lr = scheduleLayer(t, n0.url, victimOutC)
	if lr.ServedBy != victim.url {
		t.Errorf("rejoined peer did not resume its segment: served by %s, want %s", lr.ServedBy, victim.url)
	}
	if lr.DegradedRouting {
		t.Error("request to a recovered peer still marked degraded")
	}
}

// scheduleOnce posts one schedule request and returns "" on a 200, an
// error description otherwise. Used by concurrent workload goroutines
// that must not call t.Fatal off the test goroutine.
func scheduleOnce(url, body string) string {
	resp, err := http.Post(url+"/v1/schedule/layer", "application/json", strings.NewReader(body))
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("status %d: %s", resp.StatusCode, b)
	}
	return ""
}

// TestClusterForwardStreaming checks NDJSON streams survive the proxy
// hop: a streamed request entering a non-home node is forwarded and
// the terminal result still arrives, attributed to the home peer.
func TestClusterForwardStreaming(t *testing.T) {
	nodes := newServeCluster(t, 2)
	outC := shapeHomedOn(t, nodes[0].cl, nodes[1].url, 4)
	resp := postJSON(t, nodes[0].url+"/v1/schedule/layer?stream=1", shapeBody(t, outC))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed forward: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var final StreamEvent
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream decode: %v (no terminal event)", err)
		}
		if ev.Event == "result" || ev.Event == "error" {
			final = ev
			break
		}
	}
	if final.Event != "result" || final.LayerResult == nil {
		t.Fatalf("terminal event = %+v, want a layer result", final)
	}
	if final.LayerResult.ServedBy != nodes[1].url {
		t.Errorf("streamed result served by %s, want home %s", final.LayerResult.ServedBy, nodes[1].url)
	}
}

// TestClusterHopGuard checks a request carrying the forwarded header
// is served where it lands, never re-proxied — the loop breaker.
func TestClusterHopGuard(t *testing.T) {
	nodes := newServeCluster(t, 2)
	outC := shapeHomedOn(t, nodes[0].cl, nodes[1].url, 4)

	req, err := http.NewRequest(http.MethodPost, nodes[0].url+"/v1/schedule/layer", strings.NewReader(shapeBody(t, outC)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "http://origin.invalid")
	req.Header.Set(degradedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lr LayerResponse
	decodeBody(t, resp, &lr)
	if lr.ServedBy != nodes[0].url {
		t.Errorf("hop-guarded request served by %s, want the landing node %s", lr.ServedBy, nodes[0].url)
	}
	if !lr.DegradedRouting {
		t.Error("degraded header was not propagated into the response")
	}
}

// TestClusterSnapshotWarmup drives the rejoin warm-up path: node0
// accumulates node1-homed entries while node1 is dead (failover
// serves them locally), and node1 then pulls exactly its shard back.
func TestClusterSnapshotWarmup(t *testing.T) {
	nodes := newServeCluster(t, 2)
	n0, n1 := nodes[0], nodes[1]

	n1.dead.Store(true)
	waitPeerState(t, n0.cl, n1.url, cluster.StateDown)
	victimOutC := shapeHomedOn(t, n0.cl, n1.url, 4)
	if lr := scheduleLayer(t, n0.url, victimOutC); !lr.DegradedRouting {
		t.Fatal("expected a degraded local serve while node1 is down")
	}
	// And one node0-homed entry that must NOT travel in node1's shard.
	localOutC := shapeHomedOn(t, n0.cl, n0.url, 4)
	scheduleLayer(t, n0.url, localOutC)

	n1.dead.Store(false)
	waitPeerState(t, n0.cl, n1.url, cluster.StateHealthy)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	warmed, err := n1.srv.PullSnapshot(ctx, n0.url)
	if err != nil {
		t.Fatalf("PullSnapshot: %v", err)
	}
	if warmed != 1 {
		t.Errorf("warmed %d entries, want exactly the 1 node1-homed key", warmed)
	}

	// The warmed entry serves a pure cache hit on node1.
	before := n1.srv.Cache().Stats()
	lr := scheduleLayer(t, n0.url, victimOutC)
	if lr.ServedBy != n1.url || lr.DegradedRouting {
		t.Fatalf("post-rejoin request = served_by %s degraded %v, want %s healthy", lr.ServedBy, lr.DegradedRouting, n1.url)
	}
	after := n1.srv.Cache().Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("cache stats %+v -> %+v, want one more hit and no new miss", before, after)
	}
}

// TestClusterSnapshotEndpointValidation covers the snapshot handler's
// error paths: no cluster, missing and unknown home parameters.
func TestClusterSnapshotEndpointValidation(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	resp, err := http.Get(plain.URL + "/v1/cluster/snapshot?home=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("single-node snapshot: status %d, want 404", resp.StatusCode)
	}

	nodes := newServeCluster(t, 2)
	for name, q := range map[string]string{
		"missing home": "",
		"unknown home": "?home=http://stranger.invalid:1",
	} {
		resp, err := http.Get(nodes[0].url + "/v1/cluster/snapshot" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestReadyzLifecycle checks the liveness/readiness split: warming and
// draining flip /v1/readyz to 503 while /v1/healthz stays 200.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		decodeBody(t, resp, &body)
		return resp.StatusCode, body.Status
	}

	if code, st := status("/v1/readyz"); code != http.StatusOK || st != "ready" {
		t.Errorf("fresh readyz = %d %q, want 200 ready", code, st)
	}
	s.BeginWarmup()
	if code, st := status("/v1/readyz"); code != http.StatusServiceUnavailable || st != "warming" {
		t.Errorf("warming readyz = %d %q, want 503 warming", code, st)
	}
	if code, _ := status("/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz while warming = %d, want 200", code)
	}
	s.EndWarmup()
	if code, _ := status("/v1/readyz"); code != http.StatusOK {
		t.Errorf("post-warmup readyz = %d, want 200", code)
	}
	s.BeginDrain()
	if code, st := status("/v1/readyz"); code != http.StatusServiceUnavailable || st != "draining" {
		t.Errorf("draining readyz = %d %q, want 503 draining", code, st)
	}
	if code, _ := status("/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", code)
	}
}
