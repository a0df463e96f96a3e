// Package serve turns the Flexer layer/network search into a
// long-running service: it wraps search.SearchLayerCtx and
// search.SearchNetworkCtx with a shared result cache (optionally
// persisted to disk across restarts), a bounded worker pool with
// per-request timeouts, a multi-tenant admission scheduler
// (internal/serve/admission) with weighted fair queues, priority
// tiers and preemption that sheds excess load with
// 429 + Retry-After, and an expvar-style observability surface, and
// exposes the whole thing as an http.Handler.
//
// Requests name their tenant via the "tenant" body field or the
// X-Flexer-Tenant header; single-layer requests run at the
// interactive tier and network sweeps at the batch tier, so an
// interactive arrival overtakes queued sweeps and — when every slot
// is busy — preempts a running one at its next cancellation point.
// The preempted sweep is re-enqueued and restarted transparently; its
// final result is identical to an uninterrupted run.
//
// The daemon binary cmd/flexerd is a thin wrapper around this package.
// Handler holds the routing table of the HTTP surface. With
// Config.Cluster set, schedule requests are additionally routed across
// the peer set by consistent hashing with health-gated failover (see
// cluster.go and internal/cluster).
//
// Request and response bodies are documented in docs/API.md; schedule
// payloads reuse the trace package's JSON schema, so a daemon response
// is interchangeable with the flexer CLI's -json export.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/cluster"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// Config tunes a Server. The zero value is a working quick-budget
// configuration.
type Config struct {
	// CacheSize bounds the shared result cache in entries
	// (0 = search.DefaultCacheCapacity; negative = unbounded).
	CacheSize int
	// Workers is the maximum number of concurrently running searches;
	// further requests queue until a slot frees (0 = GOMAXPROCS).
	Workers int
	// MaxQueueDepth bounds how many schedule requests may wait for a
	// worker slot per tenant; beyond it the server sheds the tenant's
	// load with 429 and a Retry-After estimate instead of letting
	// every request camp on the pool until its deadline 504s (0 = 4x
	// Workers; negative = unlimited, the pre-admission-control
	// behavior).
	MaxQueueDepth int
	// Tenants pre-registers admission tenants with non-default
	// weights, concurrency quotas or forced tiers; unknown tenants are
	// created on first use with weight 1 and no quota.
	Tenants []admission.TenantConfig
	// DefaultTenant is the tenant billed for requests that name none
	// ("" = "default").
	DefaultTenant string
	// SearchParallelism is the per-search worker count handed to
	// search.Options.Workers (0 = GOMAXPROCS). Lower it when Workers
	// is high to avoid oversubscription.
	SearchParallelism int
	// DefaultTimeout bounds a search when the request does not name a
	// timeout_ms (0 = 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (0 = 10min).
	MaxTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Cluster, when non-nil, routes schedule requests across the peer
	// set by consistent hashing with health-gated failover. The caller
	// owns the membership's Start/Stop lifecycle; the server only
	// consults it per request.
	Cluster *cluster.Cluster
	// Log receives one line per request (nil = log.Default()).
	Log *log.Logger
}

// Server serves schedule requests over HTTP, memoizing results in a
// shared cache and bounding concurrent search work. Create one with
// New and mount Handler on an http.Server.
type Server struct {
	cfg     Config
	cache   *search.Cache
	admit   *admission.Scheduler // multi-tenant worker-slot arbiter
	metrics *metrics
	start   time.Time
	log     *log.Logger

	// cluster is the peer membership (nil single-node); forwardClient
	// carries proxied requests and snapshot pulls to peers.
	cluster       *cluster.Cluster
	forwardClient *http.Client

	// warming and draining gate /v1/readyz: a node reports not-ready
	// while its cache warms at boot and again once shutdown begins.
	warming  atomic.Bool
	draining atomic.Bool
}

// New returns a Server ready to serve requests.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueueDepth == 0 {
		cfg.MaxQueueDepth = 4 * cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	cacheSize := search.DefaultCacheCapacity
	if cfg.CacheSize > 0 {
		cacheSize = cfg.CacheSize
	} else if cfg.CacheSize < 0 {
		cacheSize = 0 // unbounded
	}
	cfg.DefaultTenant = cmp.Or(cfg.DefaultTenant, "default")
	s := &Server{
		cfg:   cfg,
		cache: search.NewCacheSized(cacheSize),
		admit: admission.NewScheduler(admission.Config{
			Slots:         cfg.Workers,
			MaxQueueDepth: cfg.MaxQueueDepth,
			Tenants:       cfg.Tenants,
		}),
		metrics:       newMetrics(),
		start:         time.Now(),
		log:           cmp.Or(cfg.Log, log.Default()),
		cluster:       cfg.Cluster,
		forwardClient: newForwardClient(),
	}
	s.metrics.publish("cache", expvar.Func(func() any { return s.cache.Stats() }))
	s.metrics.publish("cache_hit_ratio", expvar.Func(func() any { return s.cache.Stats().HitRatio() }))
	s.metrics.publish("searches_coalesced_total", expvar.Func(func() any { return s.cache.Stats().CoalescedHits }))
	s.metrics.publish("worker_pool_size", expvar.Func(func() any { return cfg.Workers }))
	s.metrics.publish("requests_queued", expvar.Func(func() any { return s.admit.Stats().Queued }))
	s.metrics.publish("queue_depth_limit", expvar.Func(func() any { return s.admit.QueueDepth() }))
	s.metrics.publish("tenants", expvar.Func(func() any { return s.admit.Stats().Tenants }))
	s.metrics.publish("uptime_seconds", expvar.Func(func() any { return time.Since(s.start).Seconds() }))
	if s.cluster != nil {
		s.metrics.publish("cluster", expvar.Func(func() any { return s.cluster.Stats() }))
		s.metrics.publish("requests_forwarded_total", expvar.Func(func() any { return s.cluster.Forwards() }))
		s.metrics.publish("requests_failed_over_total", expvar.Func(func() any { return s.cluster.Failovers() }))
	}
	return s
}

// Cache exposes the server's shared result cache (e.g. for pre-warming
// or inspection in tests).
func (s *Server) Cache() *search.Cache { return s.cache }

// SaveCacheFile atomically snapshots the result cache to path: the
// snapshot is written to a temporary file in the same directory and
// renamed into place, so a crash mid-write never clobbers the previous
// snapshot. It returns the number of entries written.
func (s *Server) SaveCacheFile(path string) (int, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("cache snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := s.cache.SaveTo(tmp)
	if err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return n, fmt.Errorf("cache snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return n, fmt.Errorf("cache snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return n, fmt.Errorf("cache snapshot: %w", err)
	}
	return n, nil
}

// LoadCacheFile warms the result cache from a snapshot written by
// SaveCacheFile, returning how many entries were installed. A missing
// file is not an error — the first boot of a daemon with -cache-file
// simply starts cold.
func (s *Server) LoadCacheFile(path string) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("cache snapshot: %w", err)
	}
	defer f.Close()
	return s.cache.LoadFrom(f)
}

// Handler returns the routing table of the HTTP surface. Every route
// here is documented in docs/API.md.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule/layer", s.instrument(http.MethodPost, "/v1/schedule/layer", s.handleLayer))
	mux.HandleFunc("/v1/schedule/network", s.instrument(http.MethodPost, "/v1/schedule/network", s.handleNetwork))
	mux.HandleFunc("/v1/presets", s.instrument(http.MethodGet, "/v1/presets", s.handlePresets))
	mux.HandleFunc("/v1/healthz", s.instrument(http.MethodGet, "/v1/healthz", s.handleHealthz))
	mux.HandleFunc("/v1/readyz", s.instrument(http.MethodGet, "/v1/readyz", s.handleReadyz))
	mux.HandleFunc("/v1/cluster/snapshot", s.instrument(http.MethodGet, "/v1/cluster/snapshot", s.handleClusterSnapshot))
	mux.Handle("/debug/vars", s.metrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// instrument wraps a handler with the method check (405 with the
// allowed method advertised), the request counters, the in-flight
// gauge and one log line per request. Successful probe hits (health
// and readiness) are counted but not logged: peers probe every couple
// of seconds and would otherwise drown real traffic in the log.
func (s *Server) instrument(method, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	probe := endpoint == "/v1/healthz" || endpoint == "/v1/readyz"
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(endpoint, 1)
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if r.Method == method {
			h(sw, r)
		} else {
			sw.Header().Set("Allow", method)
			writeJSON(sw, http.StatusMethodNotAllowed, ErrorResponse{Error: "method not allowed; use " + method})
		}
		if sw.code >= 400 {
			s.metrics.errors.Add(fmt.Sprint(sw.code), 1)
		}
		if probe && sw.code < 400 {
			return
		}
		s.log.Printf("%s %s -> %d (%v)", r.Method, r.URL.Path, sw.code, time.Since(start).Round(time.Millisecond))
	}
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the code and forwards it.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so instrumented handlers can
// stream; without it the wrapper hides the http.Flusher the net/http
// ResponseWriter implements.
func (w *statusWriter) Flush() { _ = http.NewResponseController(w.ResponseWriter).Flush() }

// Unwrap exposes the wrapped writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleLayer serves POST /v1/schedule/layer. Layers are the
// latency-bound class: they overtake queued network sweeps and preempt
// running preemptible ones. Cluster routing keys off the exact cache
// fingerprint, so identical requests coalesce onto one home peer's
// search.
func (s *Server) handleLayer(w http.ResponseWriter, r *http.Request) {
	var req LayerRequest
	if !decode(w, r, &req) {
		return
	}
	s.serveJob(w, r, func() (job, error) {
		cfg, err := resolveArch(req.Arch, req.CustomArch)
		if err != nil {
			return job{}, err
		}
		l, err := resolveLayer(req)
		if err != nil {
			return job{}, err
		}
		opts, err := s.searchOptions(req.Options, req.FaultPlan, cfg)
		if err != nil {
			return job{}, err
		}
		key := search.CacheKey(l, opts)
		j := job{
			key:       key,
			body:      &req,
			timeoutMS: req.TimeoutMS,
			adm:       admission.Request{Tenant: req.Tenant, Tier: admission.TierInteractive},
			hist:      s.metrics.latency,
			result:    `{"event":"result","layer_result":`,
			run: func(ctx context.Context, a attempt) (*bytes.Buffer, error) {
				lr, err := s.cache.Layer(ctx, key, l, a.options(opts))
				if err != nil {
					return nil, fmt.Errorf("%w for layer %s on %s", err, l.Name, cfg.Name)
				}
				return layerBody(lr, cfg.Name, req.Full, msSince(a.start), a.route), nil
			},
		}
		// A full timeline's encode grows with the schedule: its hit
		// keeps a worker slot.
		if !req.Full {
			j.lookup = func(_ context.Context, a attempt) (*bytes.Buffer, error) {
				if lr := s.cache.Lookup(key, l, a.progress); lr != nil {
					return layerBody(lr, cfg.Name, false, msSince(a.start), a.route), nil
				}
				return nil, nil
			}
		}
		return j, nil
	})
}

// handleNetwork serves POST /v1/schedule/network. Sweeps are the
// throughput-bound class: preemptible, so an interactive arrival can
// take their slot at the sweep's next cancellation point (it is then
// requeued and restarted). A sweep routes as one unit by its
// request-level key, so identical sweeps coalesce on one home peer.
func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	var req NetworkRequest
	if !decode(w, r, &req) {
		return
	}
	s.serveJob(w, r, func() (job, error) {
		cfg, err := resolveArch(req.Arch, req.CustomArch)
		if err != nil {
			return job{}, err
		}
		if req.Network == "" {
			return job{}, badf("request needs a network name")
		}
		n, err := resolveNetwork(req.Network, req.Scale)
		if err != nil {
			return job{}, err
		}
		opts, err := s.searchOptions(req.Options, req.FaultPlan, cfg)
		if err != nil {
			return job{}, err
		}
		key := search.NetworkKey(req.Network, req.Scale, opts)
		envelope := func(a attempt, distinct int) networkEnvelope {
			return networkEnvelope{n.Name, cfg.Name, msSince(a.start), distinct, a.route.servedBy, a.route.degraded}
		}
		return job{
			key:       key,
			body:      &req,
			timeoutMS: req.TimeoutMS,
			adm:       admission.Request{Tenant: req.Tenant, Tier: admission.TierBatch, Preemptible: true},
			hist:      s.metrics.netLat,
			result:    `{"event":"result","network_result":`,
			// A streamed sweep searches: its progress events are the
			// per-layer lookups'.
			lookup: func(_ context.Context, a attempt) (*bytes.Buffer, error) {
				if a.progress != nil {
					return nil, nil
				}
				if memo := s.cache.NetworkMemo(key); memo != nil {
					return networkBody(memo, envelope(a, 0)), nil
				}
				return nil, nil
			},
			run: func(ctx context.Context, a attempt) (*bytes.Buffer, error) {
				nr, err := search.SearchNetworkCtx(ctx, n, a.options(opts))
				if err != nil {
					return nil, err
				}
				memo := networkMemo(nr)
				s.cache.SetNetworkMemo(key, memo)
				return networkBody(memo, envelope(a, nr.LayerSearches)), nil
			},
		}, nil
	})
}

// searchOptions resolves a request's option block and fault plan into
// the options the server runs the search with.
func (s *Server) searchOptions(o SearchOptionsJSON, plan *fault.Plan, cfg arch.Config) (search.Options, error) {
	opts, err := resolveOptions(o, cfg)
	if err != nil {
		return opts, err
	}
	if opts.FaultPlan, err = resolveFaultPlan(plan, cfg); err != nil {
		return opts, err
	}
	opts.Cache = s.cache
	opts.Workers = s.cfg.SearchParallelism
	return opts, nil
}

// handlePresets serves GET /v1/presets.
func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, buildPresets())
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// tenantHeader names the HTTP header that selects the admission
// tenant when the request body names none.
const tenantHeader = "X-Flexer-Tenant"

// tenant resolves the admission tenant of one request: the body's
// tenant field, else the X-Flexer-Tenant header, else the server's
// default tenant.
func (s *Server) tenant(r *http.Request, bodyTenant string) string {
	return cmp.Or(bodyTenant, r.Header.Get(tenantHeader), s.cfg.DefaultTenant)
}

// effectiveTimeout resolves the search deadline for one request: the
// client's timeout_ms clamped to the server maximum, or the server
// default when the client named none.
func (s *Server) effectiveTimeout(timeoutMS int64) time.Duration {
	if timeoutMS <= 0 {
		return s.cfg.DefaultTimeout
	}
	return min(time.Duration(timeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
}

// maxBodyBytes caps request bodies.
const maxBodyBytes = 1 << 20

// decode reads a JSON request body, rejecting unknown fields with 400
// and bodies over maxBodyBytes with 413.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, ErrorResponse{Error: "invalid request body: " + err.Error()})
		return false
	}
	if err := dec.Decode(new(struct{})); !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid request body: trailing data"})
		return false
	}
	return true
}

// retryAfter estimates when a shed client should come back: the queue
// ahead of it, paced by the exponentially-decayed mean search latency
// per worker, clamped to [1s, 5min]. Before any observation it falls
// back to 1s. The decayed mean (not the lifetime mean) matters here:
// one cold multi-minute sweep must not inflate every later hint for
// the life of the process.
func (s *Server) retryAfter() time.Duration {
	mean := max(s.metrics.latency.decayedMeanMS(), s.metrics.netLat.decayedMeanMS())
	if mean <= 0 {
		mean = 1000
	}
	backlog := float64(s.admit.Stats().Queued + 1)
	d := time.Duration(mean*backlog/float64(s.cfg.Workers)) * time.Millisecond
	return min(max(d, time.Second), 5*time.Minute)
}

// state snapshots the queues and cache for degraded-mode error bodies,
// so a client that was shed or timed out can see why.
func (s *Server) state() *ServerStateJSON {
	st := s.admit.Stats()
	return &ServerStateJSON{
		Queued:     int64(st.Queued),
		QueueLimit: s.admit.QueueDepth(),
		Searching:  s.metrics.searching.Value(),
		Workers:    s.cfg.Workers,
		Cache:      s.cache.Stats(),
	}
}

// msSince returns the elapsed wall-clock since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
