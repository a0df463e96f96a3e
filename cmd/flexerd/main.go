// Command flexerd runs the Flexer scheduler as a long-running HTTP
// daemon: schedule-as-a-service with cross-request result caching, a
// bounded worker pool, admission control and expvar metrics.
//
// Usage:
//
//	flexerd                          # listen on :8080
//	flexerd -addr :9000 -workers 4 -cache-size 8192
//	flexerd -timeout 30s -max-timeout 5m -pprof
//	flexerd -cache-file /var/lib/flexer/cache.gob -queue-depth 64
//	flexerd -tenant prod:3 -tenant scans:1:2:batch -default-tenant prod
//	flexerd -addr :8081 -advertise http://node1:8081 \
//	        -peers http://node1:8081,http://node2:8081,http://node3:8081
//
// Endpoints (see docs/API.md for bodies and examples):
//
//	POST /v1/schedule/layer    schedule one layer
//	POST /v1/schedule/network  schedule a whole network
//	POST /v1/schedule/*?stream=1  same, streaming NDJSON progress
//	GET  /v1/presets           archs, networks and option enums
//	GET  /v1/healthz           liveness probe
//	GET  /v1/readyz            readiness (503 while warming/draining)
//	GET  /v1/cluster/snapshot  a peer's cache shard (cluster mode)
//	GET  /debug/vars           metrics (expvar JSON)
//	GET  /debug/pprof/         profiling (with -pprof)
//
// With -peers (and -advertise naming this node's own entry in that
// list), the daemon forms a static cluster: every schedule request is
// homed on one node by consistent hashing and proxied there, so
// identical requests coalesce into one search cluster-wide. Each node
// probes its peers' /v1/healthz every -probe-interval; requests homed
// on a down peer fail over to the ring successor and are answered with
// degraded_routing set. On boot a cluster node warms its cache shard
// from its ring successor before reporting ready, and on shutdown it
// flips /v1/readyz to 503 before closing the listener so peers and
// load balancers stop routing to it first.
//
// Admission is multi-tenant: requests name a tenant via their "tenant"
// body field or X-Flexer-Tenant header and queue per tenant, with
// worker slots granted by weighted fairness in served search-seconds.
// -tenant name:weight[:quota[:tier]] (repeatable) configures weights,
// concurrency quotas and a forced tier (auto, interactive or batch);
// unlisted tenants get weight 1. Single-layer requests run at the
// interactive tier and preempt running network sweeps, which stop at
// their next cancellation point; preempted sweeps requeue and restart
// transparently.
// When a tenant's queue exceeds -queue-depth, its further schedule
// requests are shed with 429, a Retry-After estimate and the tenant's
// queue position. Concurrent identical requests coalesce into one
// underlying search.
//
// With -cache-file, the result cache is loaded on boot and snapshotted
// atomically every -cache-snapshot-interval and on shutdown, so a
// restart keeps its warm set instead of recomputing hours of search.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests for up to 10 seconds; a second signal during the
// drain forces an immediate exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/flexer-sched/flexer/internal/cluster"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve"
	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// tenantFlags collects repeated -tenant flags, each of the form
// name:weight[:quota[:tier]] with tier one of auto, interactive or
// batch.
type tenantFlags struct {
	tenants []admission.TenantConfig
}

// String renders the configured tenants back into flag syntax.
func (t *tenantFlags) String() string {
	var parts []string
	for _, tc := range t.tenants {
		p := fmt.Sprintf("%s:%g", tc.Name, tc.Weight)
		if tc.Quota > 0 || tc.Tier != admission.TierAuto {
			p += fmt.Sprintf(":%d", tc.Quota)
		}
		if tc.Tier != admission.TierAuto {
			p += ":" + tc.Tier.String()
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ",")
}

// Set parses one -tenant value.
func (t *tenantFlags) Set(v string) error {
	fields := strings.Split(v, ":")
	if len(fields) < 2 || len(fields) > 4 || fields[0] == "" {
		return fmt.Errorf("want name:weight[:quota[:tier]], got %q", v)
	}
	tc := admission.TenantConfig{Name: fields[0]}
	w, err := strconv.ParseFloat(fields[1], 64)
	if err != nil || w <= 0 {
		return fmt.Errorf("tenant %s: weight must be a positive number, got %q", fields[0], fields[1])
	}
	tc.Weight = w
	if len(fields) >= 3 {
		q, err := strconv.Atoi(fields[2])
		if err != nil || q < 0 {
			return fmt.Errorf("tenant %s: quota must be a non-negative integer, got %q", fields[0], fields[2])
		}
		tc.Quota = q
	}
	if len(fields) == 4 {
		tier, err := admission.ParseTier(fields[3])
		if err != nil {
			return fmt.Errorf("tenant %s: %v", fields[0], err)
		}
		tc.Tier = tier
	}
	t.tenants = append(t.tenants, tc)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flexerd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent searches (0 = GOMAXPROCS)")
	searchPar := flag.Int("search-parallelism", 0, "per-search worker count (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", 0, "result-cache capacity: at most this many completed entries, least recently used evicted first (0 = 4096, -1 = unbounded)")
	cacheFile := flag.String("cache-file", "", "cache snapshot path: loaded on boot, saved periodically and on shutdown (empty = no persistence)")
	snapEvery := flag.Duration("cache-snapshot-interval", 5*time.Minute, "period between cache snapshots (0 = only on shutdown; needs -cache-file)")
	queueDepth := flag.Int("queue-depth", 0, "max schedule requests waiting for a worker before shedding with 429 (0 = 4x workers, -1 = unlimited)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request search timeout")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested timeouts")
	enablePprof := flag.Bool("pprof", false, "expose /debug/pprof/ endpoints")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "tenant config name:weight[:quota[:tier]] (repeatable; tier = auto|interactive|batch)")
	defaultTenant := flag.String("default-tenant", "", `tenant billed for requests that name none (empty = "default")`)
	peers := flag.String("peers", "", "comma-separated URLs of every cluster node, including this one (empty = single-node)")
	advertise := flag.String("advertise", "", "this node's own URL as it appears in -peers (required with -peers)")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "period between peer health probes (cluster mode)")
	flag.Parse()

	logger := log.New(os.Stderr, "flexerd ", log.LstdFlags)

	var clu *cluster.Cluster
	if *peers != "" {
		if *advertise == "" {
			return errors.New("-peers requires -advertise (this node's own URL)")
		}
		var err error
		clu, err = cluster.New(cluster.Config{
			Self:          *advertise,
			Peers:         strings.Split(*peers, ","),
			ProbeInterval: *probeEvery,
			Log:           logger,
		})
		if err != nil {
			return err
		}
	}

	srv := serve.New(serve.Config{
		CacheSize:         *cacheSize,
		Workers:           *workers,
		SearchParallelism: *searchPar,
		MaxQueueDepth:     *queueDepth,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		EnablePprof:       *enablePprof,
		Tenants:           tenants.tenants,
		DefaultTenant:     *defaultTenant,
		Cluster:           clu,
		Log:               logger,
	})

	// Not ready until the warm-up below has run; liveness is unaffected.
	srv.BeginWarmup()
	if *cacheFile != "" {
		switch n, err := srv.LoadCacheFile(*cacheFile); {
		case errors.Is(err, search.ErrSnapshotVersion):
			// A routine rolling-upgrade artifact, not a failure: the old
			// binary's snapshot no longer matches this one's key format.
			logger.Printf("cache-file %s is from an incompatible flexerd version, starting cold: %v", *cacheFile, err)
		case err != nil:
			logger.Printf("cache-file %s: %v (starting cold)", *cacheFile, err)
		case n > 0:
			logger.Printf("warmed cache with %d entries from %s", n, *cacheFile)
		}
	}
	saveCache := func(reason string) {
		if *cacheFile == "" {
			return
		}
		n, err := srv.SaveCacheFile(*cacheFile)
		if err != nil {
			logger.Printf("cache snapshot (%s): %v", reason, err)
			return
		}
		logger.Printf("cache snapshot (%s): %d entries -> %s", reason, n, *cacheFile)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	if clu != nil {
		clu.Start()
		defer clu.Stop()
	}

	// Warm up off the boot path: the listener is already up (liveness
	// probes succeed, peers can pull shards from us), and readiness
	// flips once the shard pull — which needs the successor to be
	// serving, hence the retries — resolves one way or the other.
	go func() {
		defer srv.EndWarmup()
		if clu == nil {
			return
		}
		succ := clu.SuccessorOf(clu.Self())
		if succ == "" {
			return
		}
		for attempt := 0; attempt < 5; attempt++ {
			if attempt > 0 {
				time.Sleep(2 * time.Second)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			n, err := srv.PullSnapshot(ctx, succ)
			cancel()
			if err == nil {
				logger.Printf("warmed %d cache entries from %s", n, succ)
				return
			}
			if errors.Is(err, search.ErrSnapshotVersion) {
				logger.Printf("peer %s snapshot is from an incompatible version, starting cold: %v", succ, err)
				return
			}
			logger.Printf("warm-up pull from %s failed (attempt %d/5): %v", succ, attempt+1, err)
		}
		logger.Printf("warm-up gave up, starting cold")
	}()

	// Periodic snapshots keep the warm set durable against crashes, not
	// just clean shutdowns.
	stopSnap := make(chan struct{})
	var snapWG sync.WaitGroup
	if *cacheFile != "" && *snapEvery > 0 {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					saveCache("periodic")
				case <-stopSnap:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		// ErrServerClosed only ever means somebody shut the server
		// down cleanly; anything else (bind failure, bad TLS) is fatal.
		close(stopSnap)
		snapWG.Wait()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case s := <-sig:
		logger.Printf("received %v, draining (send again to force exit)", s)
	}
	close(stopSnap)
	snapWG.Wait()

	// Flip readiness before touching the listener: peers and load
	// balancers see the 503 on their next probe and stop routing new
	// work here while in-flight requests drain below.
	srv.BeginDrain()
	if clu != nil {
		clu.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- httpSrv.Shutdown(ctx) }()
	select {
	case err := <-shutdownDone:
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	case s := <-sig:
		logger.Printf("received second %v, forcing exit", s)
		httpSrv.Close()
		saveCache("forced shutdown")
		return fmt.Errorf("forced exit on second %v", s)
	}
	// The listener goroutine has returned by now; its ErrServerClosed
	// is the expected outcome of Shutdown, not a failure.
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	saveCache("shutdown")
	logger.Printf("bye")
	return nil
}
