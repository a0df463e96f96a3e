package serve

// Cluster-mode request routing. With Config.Cluster set, every
// schedule request is fingerprinted (search.CacheKey for layers,
// search.NetworkKey for sweeps) and homed on one peer by the
// consistent-hash ring, so concurrent identical requests coalesce into
// one search cluster-wide, not just per process:
//
//   - homed here: serve locally, as single-node would.
//   - homed on a live peer: proxy the request there over the existing
//     HTTP surface. The X-Flexer-Forwarded header is a hop guard — a
//     forwarded request is always served where it lands, so routing
//     disagreements during a membership view change degrade to one
//     extra hop, never a loop.
//   - homed on a down peer: fail over to the key's ring successor
//     (possibly this node) and mark degraded_routing in the response.
//   - proxy fails in transport: serve locally (degraded), report the
//     failure to the health FSM, and kick an immediate re-probe.
//
// A killed peer therefore costs availability nothing: its keys are
// served — cached or recomputed — by ring successors until the peer's
// probes recover, at which point it resumes exact ownership of its
// segment (the ring itself never changes).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/flexer-sched/flexer/internal/cluster"
)

// forwardedHeader is the hop guard: set on proxied schedule requests
// to the origin peer's advertise URL. A request carrying it is always
// served locally, never re-forwarded.
const forwardedHeader = "X-Flexer-Forwarded"

// degradedHeader marks a proxied request that is already off its home
// peer (the origin failed it over), so the serving node reports
// degraded_routing even though its own view routed normally.
const degradedHeader = "X-Flexer-Degraded"

// forwardDialTimeout bounds connection establishment to a peer. The
// overall forward deadline must cover a whole remote search, so only
// the dial is kept short: a black-holed peer fails fast instead of
// consuming the request's deadline.
const forwardDialTimeout = 2 * time.Second

// forwardGrace pads the forward deadline past the request's search
// timeout so the remote's own 504 arrives before the proxy gives up.
const forwardGrace = 5 * time.Second

// newForwardClient builds the proxy transport: short dial timeout,
// no overall timeout (the per-request context governs).
func newForwardClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: forwardDialTimeout}).DialContext,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// routeInfo is what a routing decision leaves behind for the local
// handler: how to annotate the response it is about to compute.
type routeInfo struct {
	// servedBy is this node's advertise URL ("" single-node).
	servedBy string
	// degraded marks the request as served off its down home peer.
	degraded bool
}

// routeSchedule decides where one schedule request runs. It returns
// handled=true when the request was proxied to its home peer and the
// response is already written; otherwise the caller serves locally and
// annotates its response with the returned routeInfo.
func (s *Server) routeSchedule(w http.ResponseWriter, r *http.Request, key string, timeoutMS int64, body any) (routeInfo, bool) {
	cl := s.cluster
	if cl == nil || !cl.Enabled() {
		return routeInfo{}, false
	}
	rt := routeInfo{servedBy: cl.Self()}
	if from := r.Header.Get(forwardedHeader); from != "" {
		// Hop guard: a forwarded request is served where it lands.
		cl.CountForwardedIn()
		rt.degraded = r.Header.Get(degradedHeader) != ""
		return rt, false
	}
	route := cl.Route(key)
	if route.Degraded {
		// Counted at the routing node, whether the diverted target is
		// local or a forwarded-to successor.
		cl.CountFailover()
	}
	if route.Local {
		rt.degraded = route.Degraded
		return rt, false
	}
	if err := s.forward(w, r, route, timeoutMS, body); err != nil {
		// The peer was unreachable: serve the request ourselves rather
		// than erroring, tell the FSM, and re-probe immediately.
		cl.ReportForwardFailure(route.Target, err)
		if !route.Degraded {
			cl.CountFailover()
		}
		s.log.Printf("cluster: forward %s %s to %s failed (%v); serving locally degraded",
			r.Method, r.URL.Path, route.Target, err)
		rt.degraded = true
		return rt, false
	}
	return rt, true
}

// forward proxies one schedule request to route.Target, streaming the
// peer's response (JSON or NDJSON) back to the client. A transport
// failure — or a 502/503 from a peer that is itself draining — is
// returned without writing anything, so the caller can still fall back
// to a local search.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, route cluster.Route, timeoutMS int64, body any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("encode forward body: %w", err)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout(timeoutMS)+forwardGrace)
	defer cancel()
	u := route.Target + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, s.cluster.Self())
	if route.Degraded {
		req.Header.Set(degradedHeader, "1")
	}
	if tenant := r.Header.Get(tenantHeader); tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := s.forwardClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable:
		// The peer is up but refusing work (draining, not ready);
		// treat like a dead peer and fall back locally.
		return fmt.Errorf("peer %s: status %d", route.Target, resp.StatusCode)
	}
	s.cluster.CountForward()
	for _, h := range []string{"Content-Type", "Retry-After", "X-Content-Type-Options"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := hopBufs.Get().(*[32 << 10]byte)
	defer hopBufs.Put(buf)
	_, _ = io.CopyBuffer(flushWriter{w}, resp.Body, buf[:])
	return nil
}

// hopBufs recycles forward's copy buffers; io.Copy allocates one a reply.
var hopBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// flushWriter flushes after every write, so proxied NDJSON progress
// events arrive live instead of buffered to the end.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	_ = http.NewResponseController(f.w).Flush()
	return n, err
}

// handleClusterSnapshot serves GET /v1/cluster/snapshot?home=<peer>:
// the gob snapshot (search.Cache.SaveTo format) of every completed
// cache entry whose ring home is the named peer. A joining peer pulls
// this from its ring successor to warm up with its own shard instead
// of starting cold.
func (s *Server) handleClusterSnapshot(w http.ResponseWriter, r *http.Request) {
	cl := s.cluster
	if cl == nil || !cl.Enabled() {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "clustering is not enabled on this node"})
		return
	}
	home := r.URL.Query().Get("home")
	if home == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "snapshot request needs a home=<peer-url> parameter"})
		return
	}
	if !cl.Ring().Contains(home) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("peer %q is not on this node's ring", home)})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	n, err := s.cache.SaveShardTo(w, func(key string) bool { return cl.Home(key) == home })
	if err != nil {
		// Headers are committed; the peer's LoadFrom sees a truncated
		// gob stream and keeps whatever decoded cleanly.
		s.log.Printf("cluster: snapshot export for %s failed after %d entries: %v", home, n, err)
		return
	}
	s.log.Printf("cluster: exported %d-entry shard to %s", n, home)
}

// PullSnapshot warms the local cache with this node's home shard from
// peer (normally the ring successor), returning how many entries were
// installed. Keys already present locally win, so pulling is always
// safe; a refusing or unreachable peer is an error the caller may
// simply log — a cold start is the graceful floor.
func (s *Server) PullSnapshot(ctx context.Context, peer string) (int, error) {
	cl := s.cluster
	if cl == nil || !cl.Enabled() {
		return 0, fmt.Errorf("cluster: not enabled")
	}
	u := peer + "/v1/cluster/snapshot?home=" + url.QueryEscape(cl.Self())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.forwardClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("cluster: pull snapshot from %s: %w", peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: pull snapshot from %s: status %d", peer, resp.StatusCode)
	}
	n, err := s.cache.LoadFrom(resp.Body)
	cl.CountWarmedEntries(n)
	if err != nil {
		return n, fmt.Errorf("cluster: load snapshot from %s: %w", peer, err)
	}
	return n, nil
}

// BeginWarmup marks the node not-ready while its cache warms (disk
// snapshot load, peer shard pull). Liveness is unaffected.
func (s *Server) BeginWarmup() { s.warming.Store(true) }

// EndWarmup clears the warmup gate set by BeginWarmup.
func (s *Server) EndWarmup() { s.warming.Store(false) }

// BeginDrain marks the node draining: /v1/readyz flips to 503 so load
// balancers and peers stop sending new work, while in-flight requests
// and liveness probes keep succeeding. There is no EndDrain — draining
// ends in process exit.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// readiness reports whether the node should receive new work, and the
// reason when not ("warming" or "draining").
func (s *Server) readiness() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if s.warming.Load() {
		return false, "warming"
	}
	return true, ""
}

// handleReadyz serves GET /v1/readyz: 200 while the node accepts new
// work, 503 with the blocking reason while warming up or draining.
// Distinct from /v1/healthz (liveness): a draining node is alive but
// not ready, and restarting it for failing readiness would be wrong.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if ready, reason := s.readiness(); !ready {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": reason,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ready",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"cache_entries":  s.cache.Len(),
	})
}
