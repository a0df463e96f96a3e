package cluster

import (
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// healthzPeer is a fake peer whose /v1/healthz can be flipped dead and
// alive; dead means the connection is severed without a response, the
// closest in-process stand-in for a crashed flexerd.
type healthzPeer struct {
	dead atomic.Bool
	ts   *httptest.Server
}

func newHealthzPeer(t *testing.T) *healthzPeer {
	t.Helper()
	p := &healthzPeer{}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.dead.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic(http.ErrAbortHandler)
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, `{"status":"ok"}`)
	}))
	t.Cleanup(p.ts.Close)
	return p
}

// testCluster builds a fast-probing cluster around the given fake
// peers, with this node's advertise URL being a placeholder that no
// probe ever targets.
func testCluster(t *testing.T, peers ...*healthzPeer) *Cluster {
	t.Helper()
	cfg := Config{
		Self:          "http://self.invalid:1",
		ProbeInterval: 15 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		Log:           log.New(io.Discard, "", 0),
	}
	for _, p := range peers {
		cfg.Peers = append(cfg.Peers, p.ts.URL)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// waitForState polls until the peer reaches want or the deadline hits.
func waitForState(t *testing.T, c *Cluster, peer string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.PeerState(peer) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer %s never reached %v (stuck at %v)", peer, want, c.PeerState(peer))
}

// TestProberKillAndRejoin drives one peer through the full lifecycle:
// probed healthy, killed until down, revived until rejoin.
func TestProberKillAndRejoin(t *testing.T) {
	peer := newHealthzPeer(t)
	c := testCluster(t, peer)
	c.Start()

	waitForState(t, c, peer.ts.URL, StateHealthy)
	peer.dead.Store(true)
	waitForState(t, c, peer.ts.URL, StateDown)
	peer.dead.Store(false)
	waitForState(t, c, peer.ts.URL, StateHealthy)

	st := c.Stats()
	if st.RejoinsTotal < 1 {
		t.Errorf("rejoins_total = %d, want >= 1", st.RejoinsTotal)
	}
	if len(st.Peers) != 1 {
		t.Fatalf("stats peers = %d, want 1", len(st.Peers))
	}
	ps := st.Peers[0]
	if ps.Probes == 0 || ps.Transitions < 2 {
		t.Errorf("peer stats look idle: %+v", ps)
	}
	if ps.EWMAProbeMS < 0 {
		t.Errorf("negative probe latency: %+v", ps)
	}
}

// TestRouteFailsOverAroundDownPeer: keys homed on a down peer route to
// the next alive peer on the ring, flagged degraded, and snap back on
// rejoin.
func TestRouteFailsOverAroundDownPeer(t *testing.T) {
	a, b := newHealthzPeer(t), newHealthzPeer(t)
	c := testCluster(t, a, b)
	c.Start()
	waitForState(t, c, a.ts.URL, StateHealthy)
	waitForState(t, c, b.ts.URL, StateHealthy)

	// Find a key homed on peer a.
	var key string
	for i := 0; ; i++ {
		key = "key-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if c.Home(key) == a.ts.URL {
			break
		}
	}
	r := c.Route(key)
	if r.Target != a.ts.URL || r.Degraded || r.Local {
		t.Fatalf("healthy route = %+v, want target %s", r, a.ts.URL)
	}

	a.dead.Store(true)
	waitForState(t, c, a.ts.URL, StateDown)
	r = c.Route(key)
	if r.Target == a.ts.URL {
		t.Fatalf("route still targets down peer: %+v", r)
	}
	if !r.Degraded {
		t.Fatalf("failover route not marked degraded: %+v", r)
	}
	if r.Home != a.ts.URL {
		t.Fatalf("home changed under failure: %+v", r)
	}

	a.dead.Store(false)
	waitForState(t, c, a.ts.URL, StateHealthy)
	r = c.Route(key)
	if r.Target != a.ts.URL || r.Degraded {
		t.Fatalf("route after rejoin = %+v, want ownership restored to %s", r, a.ts.URL)
	}
}

// TestSuspectStillRoutes: one failed probe (suspect) must not divert
// traffic; only down does.
func TestSuspectStillRoutes(t *testing.T) {
	peer := newHealthzPeer(t)
	c := testCluster(t, peer)
	// No Start: drive the FSM by hand for determinism.
	ps := c.peers[peer.ts.URL]
	c.observe(peer.ts.URL, ps, false, errors.New("probe timeout"), 1)
	if got := c.PeerState(peer.ts.URL); got != StateSuspect {
		t.Fatalf("state after one failure = %v, want suspect", got)
	}
	var key string
	for i := 0; ; i++ {
		key = "k" + string(rune('a'+i))
		if c.Home(key) == peer.ts.URL {
			break
		}
	}
	if r := c.Route(key); r.Target != peer.ts.URL || r.Degraded {
		t.Fatalf("suspect peer lost its keys: %+v", r)
	}
}

// TestReportForwardFailureDemotes: request-path transport failures
// count like failed probes and demote the peer without waiting for the
// prober.
func TestReportForwardFailureDemotes(t *testing.T) {
	peer := newHealthzPeer(t)
	c := testCluster(t, peer) // not started: only forward failures observe
	for i := 0; i < downAfter; i++ {
		c.ReportForwardFailure(peer.ts.URL, errors.New("connection refused"))
	}
	if got := c.PeerState(peer.ts.URL); got != StateDown {
		t.Fatalf("state after %d forward failures = %v, want down", downAfter, got)
	}
	if st := c.Stats(); st.ForwardErrorsTotal != downAfter {
		t.Errorf("forward_errors_total = %d, want %d", st.ForwardErrorsTotal, downAfter)
	}
}

// TestNewValidation rejects configurations routing could not work with.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without Self should fail")
	}
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"://bad"}}); err == nil {
		t.Error("New with an unparsable peer should fail")
	}
	c, err := New(Config{Self: "http://a:1/", Peers: []string{"http://a:1", "http://b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ring().Size() != 2 {
		t.Errorf("ring size = %d, want 2 (self deduped against peers)", c.Ring().Size())
	}
	if !c.Enabled() {
		t.Error("two-peer cluster should be enabled")
	}
	solo, err := New(Config{Self: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Enabled() {
		t.Error("single-node cluster should report disabled")
	}
}
