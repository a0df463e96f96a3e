// Package cluster makes flexerd horizontally scalable: a static peer
// set, a consistent-hash ring assigning every schedule request one
// home peer, an active health prober driving a three-state peer FSM
// (healthy -> suspect -> down -> rejoin), and degraded routing that
// fails requests homed on a dead peer over to the ring successor
// instead of erroring.
//
// The package is transport-agnostic glue: it probes peers over their
// existing /v1/healthz endpoint and decides who should serve a key,
// while internal/serve does the actual request forwarding (with an
// X-Flexer-Forwarded hop guard) and cmd/flexerd wires the flags. The
// design mirrors internal/fault one layer up: PR 5 schedules around
// dead cores on chip, this package routes around dead peers off chip.
package cluster

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one node's view of the cluster. Self and Peers are
// advertise URLs (e.g. "http://10.0.0.1:8080"); Self is added to the
// peer set if absent, so "-peers a,b,c -advertise b" and "-peers a,c
// -advertise b" build the same ring.
type Config struct {
	// Self is this node's advertise URL; required.
	Self string
	// Peers is the full static peer set, Self included or not.
	Peers []string
	// ProbeInterval is the health-probe period for live peers
	// (<= 0 = 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (<= 0 = min(ProbeInterval, 1s)).
	ProbeTimeout time.Duration
	// Log receives one line per peer state transition (nil =
	// log.Default()).
	Log *log.Logger
}

// Cluster is one node's live membership view: the immutable ring plus
// the mutable per-peer health, the probers maintaining it, and the
// routing counters. Safe for concurrent use.
type Cluster struct {
	cfg    Config
	ring   *Ring
	client *http.Client // probes only; forwards use internal/serve's client
	log    *log.Logger

	mu    sync.Mutex
	peers map[string]*peerState // remote peers only; self is always alive

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  atomic.Bool

	// Routing counters, incremented by internal/serve.
	forwards      atomic.Int64 // requests proxied to their home peer
	forwardErrors atomic.Int64 // proxy attempts that failed in transport
	forwardedIn   atomic.Int64 // requests served here on another node's behalf
	failovers     atomic.Int64 // requests served off their home because it was down
	rejoins       atomic.Int64 // down->healthy transitions observed
	warmedEntries atomic.Int64 // cache entries pulled via snapshot exchange
}

// peerState is the mutable health record of one remote peer.
type peerState struct {
	fsm         *FSM
	state       State
	probes      int64
	lastErr     string
	lastMS      float64
	ewmaMS      float64
	transitions int64
	lastChange  time.Time
	kick        chan struct{} // poke the prober for an immediate probe
}

// maxBackoff caps the probe period against a down peer, in probe
// intervals.
const maxBackoff = 8

// probeEWMAAlpha weights the newest probe latency in the decayed mean,
// matching internal/serve's latency histograms.
const probeEWMAAlpha = 0.3

// New validates cfg and builds the cluster view. Probing starts with
// Start, so a Cluster can be constructed, inspected and wired into a
// server before any goroutine runs.
func New(cfg Config) (*Cluster, error) {
	cfg.Self = normalizeAddr(cfg.Self)
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: config needs a non-empty Self advertise URL")
	}
	if _, err := url.ParseRequestURI(cfg.Self); err != nil {
		return nil, fmt.Errorf("cluster: invalid Self %q: %w", cfg.Self, err)
	}
	peers := []string{cfg.Self}
	for _, p := range cfg.Peers {
		p = normalizeAddr(p)
		if p == "" {
			continue
		}
		if _, err := url.ParseRequestURI(p); err != nil {
			return nil, fmt.Errorf("cluster: invalid peer %q: %w", p, err)
		}
		peers = append(peers, p)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
		if cfg.ProbeTimeout > time.Second {
			cfg.ProbeTimeout = time.Second
		}
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	c := &Cluster{
		cfg:    cfg,
		ring:   newRing(peers, DefaultVirtualNodes),
		client: &http.Client{Timeout: cfg.ProbeTimeout},
		log:    cfg.Log,
		peers:  make(map[string]*peerState),
		stop:   make(chan struct{}),
	}
	for _, p := range c.ring.peers {
		if p == cfg.Self {
			continue
		}
		c.peers[p] = &peerState{
			fsm:   newFSM(),
			state: StateHealthy,
			kick:  make(chan struct{}, 1),
		}
	}
	return c, nil
}

// normalizeAddr trims whitespace and the trailing slash so
// "http://a:1/" and "http://a:1" name the same peer.
func normalizeAddr(a string) string {
	return strings.TrimRight(strings.TrimSpace(a), "/")
}

// Self returns this node's advertise URL.
func (c *Cluster) Self() string { return c.cfg.Self }

// Ring exposes the immutable hash ring (e.g. for snapshot filtering).
func (c *Cluster) Ring() *Ring { return c.ring }

// Enabled reports whether there is anything to route to: more than one
// peer on the ring.
func (c *Cluster) Enabled() bool { return c.ring.Size() > 1 }

// Start launches one prober goroutine per remote peer. Calling Start
// twice is a no-op.
func (c *Cluster) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	for addr, ps := range c.peers {
		c.wg.Add(1)
		go c.probeLoop(addr, ps)
	}
}

// Stop terminates the probers and waits for them. Safe to call more
// than once and before Start.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// probeLoop probes one peer forever: every ProbeInterval while the
// peer answers, backing off exponentially (capped at maxBackoff
// intervals) while it is down, and immediately when kicked by a forward
// failure. A +-10% jitter decorrelates the probers of a restarted fleet.
func (c *Cluster) probeLoop(addr string, ps *peerState) {
	defer c.wg.Done()
	timer := time.NewTimer(0) // first probe immediately
	defer timer.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ps.kick:
		case <-timer.C:
		}
		fails := c.probeOnce(addr, ps)
		d := c.cfg.ProbeInterval
		// Back off against a failing peer: 1x, 2x, 4x... capped.
		for i := 1; i < fails && d < maxBackoff*c.cfg.ProbeInterval; i++ {
			d *= 2
		}
		d = min(d, maxBackoff*c.cfg.ProbeInterval)
		d += time.Duration(rand.Int63n(int64(d)/5+1)) - time.Duration(int64(d)/10)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
	}
}

// probeOnce issues one health probe and feeds the outcome into the
// FSM, returning the peer's consecutive-failure streak afterwards.
func (c *Cluster) probeOnce(addr string, ps *peerState) int {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	start := time.Now()
	ok, err := c.probe(ctx, addr)
	elapsedMS := float64(time.Since(start)) / float64(time.Millisecond)
	return c.observe(addr, ps, ok, err, elapsedMS)
}

// probe is the probe transport: GET <peer>/v1/healthz, 2xx = alive.
func (c *Cluster) probe(ctx context.Context, addr string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return false, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return true, nil
}

// observe records one probe (or forward) outcome, running the FSM and
// logging a transition. Returns the consecutive-failure streak.
func (c *Cluster) observe(addr string, ps *peerState, ok bool, err error, elapsedMS float64) int {
	c.mu.Lock()
	prev := ps.state
	st, changed := ps.fsm.Observe(ok)
	ps.state = st
	ps.probes++
	if elapsedMS >= 0 {
		ps.lastMS = elapsedMS
		if ps.probes == 1 {
			ps.ewmaMS = elapsedMS
		} else {
			ps.ewmaMS = probeEWMAAlpha*elapsedMS + (1-probeEWMAAlpha)*ps.ewmaMS
		}
	}
	if err != nil {
		ps.lastErr = err.Error()
	} else if ok {
		ps.lastErr = ""
	}
	if changed {
		ps.transitions++
		ps.lastChange = time.Now()
	}
	fails := ps.fsm.fails
	c.mu.Unlock()

	if changed {
		if prev == StateDown && st == StateHealthy {
			c.rejoins.Add(1)
		}
		c.log.Printf("cluster: peer %s %s -> %s", addr, prev, st)
	}
	return fails
}

// ReportForwardFailure feeds a request-path transport failure against
// peer into its FSM — a forward that cannot connect is as strong a
// signal as a failed probe — and kicks the prober so the peer is
// re-checked immediately instead of at the next tick.
func (c *Cluster) ReportForwardFailure(peer string, err error) {
	c.forwardErrors.Add(1)
	ps, ok := c.peers[normalizeAddr(peer)]
	if !ok {
		return
	}
	c.observe(peer, ps, false, err, -1)
	select {
	case ps.kick <- struct{}{}:
	default:
	}
}

// PeerState returns peer's FSM state; Self and unknown peers report
// healthy (routing treats both as alive).
func (c *Cluster) PeerState(peer string) State {
	ps, ok := c.peers[normalizeAddr(peer)]
	if !ok {
		return StateHealthy
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ps.state
}

// alive reports whether routing may target peer: self always, remote
// peers unless down (suspect still routes — one dropped probe must not
// reshuffle the ring).
func (c *Cluster) alive(peer string) bool {
	return c.PeerState(peer) != StateDown
}

// Route is one routing decision for a key.
type Route struct {
	// Key is the routed fingerprint (for logs).
	Key string
	// Home is the ring owner of the key.
	Home string
	// Target is the peer that should serve it: Home while alive, else
	// the first alive ring successor (possibly self).
	Target string
	// Local reports Target == Self.
	Local bool
	// Degraded reports Target != Home: the home peer is down and the
	// request failed over along the ring.
	Degraded bool
}

// Route resolves where a key should be served right now: its home
// peer, or — when the home is down — the first alive successor on the
// ring. Self counts as always alive, so the walk terminates.
func (c *Cluster) Route(key string) Route {
	seq := c.ring.sequence(key)
	r := Route{Key: key}
	if len(seq) == 0 {
		r.Home, r.Target, r.Local = c.cfg.Self, c.cfg.Self, true
		return r
	}
	r.Home = seq[0]
	r.Target = r.Home
	for _, p := range seq {
		if c.alive(p) {
			r.Target = p
			break
		}
	}
	r.Local = r.Target == c.cfg.Self
	r.Degraded = r.Target != r.Home
	return r
}

// Home returns the ring owner of key (ignoring health), e.g. for
// snapshot shard filtering.
func (c *Cluster) Home(key string) string { return c.ring.Home(key) }

// SuccessorOf returns the ring successor of peer; see Ring.SuccessorOf.
func (c *Cluster) SuccessorOf(peer string) string { return c.ring.SuccessorOf(peer) }

// CountForward records one proxied request.
func (c *Cluster) CountForward() { c.forwards.Add(1) }

// CountForwardedIn records one request served on another peer's behalf.
func (c *Cluster) CountForwardedIn() { c.forwardedIn.Add(1) }

// CountFailover records one request served off its down home peer.
func (c *Cluster) CountFailover() { c.failovers.Add(1) }

// CountWarmedEntries records cache entries installed from a peer's
// snapshot during join warm-up.
func (c *Cluster) CountWarmedEntries(n int) { c.warmedEntries.Add(int64(n)) }

// Failovers returns the failover counter (requests_failed_over_total).
func (c *Cluster) Failovers() int64 { return c.failovers.Load() }

// Forwards returns the forward counter (requests_forwarded_total).
func (c *Cluster) Forwards() int64 { return c.forwards.Load() }

// PeerStats is the observable health record of one remote peer.
type PeerStats struct {
	Addr string `json:"addr"`
	// State is the FSM state: healthy, suspect or down.
	State string `json:"state"`
	// ConsecutiveFailures is the current failed-probe streak.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Probes counts probe (and forward-failure) observations.
	Probes int64 `json:"probes"`
	// LastProbeMS and EWMAProbeMS report probe latency: the last
	// observation and an exponentially-decayed mean.
	LastProbeMS float64 `json:"last_probe_ms"`
	EWMAProbeMS float64 `json:"ewma_probe_ms"`
	// LastError is the most recent probe failure ("" after a success).
	LastError string `json:"last_error,omitempty"`
	// Transitions counts state changes; LastTransitionUnixMS stamps
	// the latest (0 = never changed).
	Transitions          int64 `json:"transitions"`
	LastTransitionUnixMS int64 `json:"last_transition_unix_ms,omitempty"`
}

// Stats is the cluster expvar payload: identity, per-peer health and
// the routing counters.
type Stats struct {
	Self  string      `json:"self"`
	Peers []PeerStats `json:"peers"`
	// ForwardsTotal counts requests proxied to their home peer;
	// ForwardErrorsTotal the proxy attempts that failed in transport;
	// ForwardedInTotal requests served here on another node's behalf;
	// FailedOverTotal requests served off their down home peer;
	// RejoinsTotal down->healthy transitions observed;
	// WarmedEntriesTotal cache entries pulled via snapshot exchange.
	ForwardsTotal      int64 `json:"forwards_total"`
	ForwardErrorsTotal int64 `json:"forward_errors_total"`
	ForwardedInTotal   int64 `json:"forwarded_in_total"`
	FailedOverTotal    int64 `json:"failed_over_total"`
	RejoinsTotal       int64 `json:"rejoins_total"`
	WarmedEntriesTotal int64 `json:"warmed_entries_total"`
}

// Stats snapshots the cluster view, peers sorted by address.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Self:               c.cfg.Self,
		ForwardsTotal:      c.forwards.Load(),
		ForwardErrorsTotal: c.forwardErrors.Load(),
		ForwardedInTotal:   c.forwardedIn.Load(),
		FailedOverTotal:    c.failovers.Load(),
		RejoinsTotal:       c.rejoins.Load(),
		WarmedEntriesTotal: c.warmedEntries.Load(),
	}
	c.mu.Lock()
	for addr, ps := range c.peers {
		p := PeerStats{
			Addr:                addr,
			State:               ps.state.String(),
			ConsecutiveFailures: ps.fsm.fails,
			Probes:              ps.probes,
			LastProbeMS:         ps.lastMS,
			EWMAProbeMS:         ps.ewmaMS,
			LastError:           ps.lastErr,
			Transitions:         ps.transitions,
		}
		if !ps.lastChange.IsZero() {
			p.LastTransitionUnixMS = ps.lastChange.UnixMilli()
		}
		st.Peers = append(st.Peers, p)
	}
	c.mu.Unlock()
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Addr < st.Peers[j].Addr })
	return st
}
