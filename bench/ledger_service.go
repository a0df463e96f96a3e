package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// admission times the worker-slot arbiter alone: uncontended (what
// every request pays, hit or miss) and with 16 callers from 4 tenants
// queueing for one slot. No end-to-end workload queues, so the second
// figure has no end-to-end counterpart yet.
func (l *ledger) admission() error {
	s := admission.NewScheduler(admission.Config{Slots: 1})
	n := l.reps(100000)
	sp := l.rec.begin("admission.acquireRelease")
	for i := 0; i < n; i++ {
		g, err := s.Acquire(l.ctx, admission.Request{Tier: admission.TierInteractive})
		if err != nil {
			return err
		}
		g.Release()
	}
	l.rec.end(sp)
	l.set("admission.acquire_release_ns", l.rec.ns(sp)/float64(n))

	const waiters, tenants = 16, 4
	each := l.reps(4000)
	s = admission.NewScheduler(admission.Config{Slots: 1, MaxQueueDepth: -1})
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	sp = l.rec.begin("admission.acquireRelease.w16")
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := admission.Request{Tenant: fmt.Sprintf("t%d", w%tenants), Tier: admission.TierBatch}
			for i := 0; i < each; i++ {
				g, err := s.Acquire(l.ctx, req)
				if err != nil {
					errs[w] = err
					return
				}
				runtime.Gosched() // hold the slot across a yield so others queue behind it
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	l.rec.end(sp)
	var granted int64
	for _, t := range s.Stats().Tenants {
		granted += t.Granted
	}
	var err error
	for _, e := range errs {
		if e != nil {
			err = e
		}
	}
	if err == nil && granted != int64(waiters*each) {
		err = fmt.Errorf("admission: %d grants for %d acquires", granted, waiters*each)
	}
	l.op(err)
	l.set("admission.acquire_release_ns_w16", l.rec.ns(sp)/float64(waiters*each))
	l.set("admission.grants", float64(granted))
	return nil
}

// blockView groups the latencies (us) and sizes of a block's successful
// replies by request kind, and by whether the asked node was the key's
// home.
type blockView struct {
	LatencyUS, Bytes [numKinds][]float64
	LocalUS, HopUS   []float64 // unary layer requests only
	Degraded         int
}

func (f *fleet) view(hs *hotSet, block []request, out blockOutcome) blockView {
	var v blockView
	for ci, reps := range out.Replies {
		for k, rep := range reps {
			rq := block[ci+k*len(out.Replies)]
			if rep.Degraded {
				v.Degraded++
			}
			if rep.Latency == 0 {
				continue
			}
			us := float64(rep.Latency) / float64(time.Microsecond)
			v.LatencyUS[rq.Kind] = append(v.LatencyUS[rq.Kind], us)
			v.Bytes[rq.Kind] = append(v.Bytes[rq.Kind], float64(rep.Bytes))
			if rq.Kind == kindLayer && len(f.nodes) > 1 {
				key := &hs.Layers[rq.Key]
				if f.home(search.CacheKey(key.Layer, key.Opts)) == f.nodes[rq.Node] {
					v.LocalUS = append(v.LocalUS, us)
				} else {
					v.HopUS = append(v.HopUS, us)
				}
			}
		}
	}
	return v
}

// clientOverhead measures the tracing overhead of the service workloads
// on requests sent by one closed-loop client, one span per round trip,
// named by kind.
func (l *ledger) clientOverhead(f *fleet, hs *hotSet, block []request) error {
	c := newClient(f, hs)
	defer c.close()
	for _, rq := range block[:min(len(block), 3*len(f.nodes))] {
		if _, err := c.do(l.ctx, rq); err != nil { // opens the connections, untimed
			return err
		}
	}
	return l.traceOverhead(func(rec *recorder) error {
		for _, rq := range block {
			rec.nextRequest()
			sp := rec.begin("client." + kindNames[rq.Kind])
			_, err := c.do(l.ctx, rq)
			rec.end(sp)
			l.op(err)
		}
		return nil
	})
}

// debugVars fetches a node's /debug/vars.
func debugVars(nd *node) (map[string]json.RawMessage, error) {
	resp, err := http.Get(nd.url + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vars := map[string]json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars, nil
}

// service probes one node and a three-node ring with the service
// workloads' hot set: round trips by kind and by home/non-home node,
// the handler without TCP, the ring and the router alone, and the
// servers' own counters.
func (l *ledger) service(workload string, seed int64) error {
	// --- one node ---
	hs, err := newHotSet(l.size)
	if err != nil {
		return err
	}
	f, err := startFleet(1)
	if err != nil {
		return err
	}
	ws, err := f.warm(l.ctx, hs)
	if err != nil {
		f.stop()
		return err
	}
	err = l.probeNode(f, hs, ws, workload, seed)
	f.stop()
	if err != nil {
		return err
	}

	// --- three nodes ---
	if hs, err = newHotSet(l.size); err != nil {
		return err
	}
	if f, err = startFleet(3); err != nil {
		return err
	}
	defer f.stop()
	if ws, err = f.warm(l.ctx, hs); err != nil {
		return err
	}
	return l.probeRing(f, hs, ws, workload, seed)
}

func (l *ledger) probeNode(f *fleet, hs *hotSet, ws warmStats, workload string, seed int64) error {
	nd := f.nodes[0]
	l.set("serve.miss_ms_p50", median(ws.MissMS))
	l.set("serve.miss_overhead_us_p50", median(ws.MissOverheadUS))

	block := makeBlock(seed, hs, l.reps(6000), 1)
	clients, closeClients := newClientPair(f, hs)
	defer closeClients()
	logged := nd.logged.n.Load()
	sp := l.rec.begin("serve.block")
	out := runBlock(l.ctx, clients, block)
	l.rec.end(sp)
	for _, err := range out.Errs {
		l.op(err)
	}
	l.res.Attempted += len(block) - len(out.Errs)
	v := f.view(hs, block, out)
	l.set("serve.layer_hit_us_p50", median(v.LatencyUS[kindLayer]))
	l.set("serve.stream_hit_us_p50", median(v.LatencyUS[kindStream]))
	l.set("serve.network_hit_us_p50", median(v.LatencyUS[kindNetwork]))
	l.set("serve.response_bytes_p50", median(v.Bytes[kindLayer]))
	l.set("serve.response_bytes_network_p50", median(v.Bytes[kindNetwork]))
	l.set("serve.log_bytes_per_req", float64(nd.logged.n.Load()-logged)/float64(len(block)))

	// The same unary layer requests through the handler alone: no
	// listener, no connection, a recorder for a response writer.
	h := nd.srv.Handler()
	var handlerUS []float64
	for _, rq := range block {
		if rq.Kind != kindLayer {
			continue
		}
		req := httptest.NewRequest(http.MethodPost, paths[kindLayer], bytes.NewReader(hs.Layers[rq.Key].Body))
		rr := httptest.NewRecorder()
		sp := l.rec.begin("serve.Handler")
		h.ServeHTTP(rr, req)
		l.rec.end(sp)
		var err error
		if rr.Code != http.StatusOK {
			err = fmt.Errorf("handler: status %d", rr.Code)
		}
		l.op(err)
		handlerUS = append(handlerUS, l.rec.ns(sp)/1e3)
	}
	l.set("serve.handler_us_p50", median(handlerUS))
	// What is left of a round trip is net/http and the loopback: the
	// floor no change to this repository moves.
	l.set("serve.transport_us_p50", l.vals["serve.layer_hit_us_p50"]-l.vals["serve.handler_us_p50"])

	// Informational: the same block with a second P.
	prev := runtime.GOMAXPROCS(2)
	out2 := runBlock(l.ctx, clients, block)
	runtime.GOMAXPROCS(prev)
	for _, err := range out2.Errs {
		l.op(err)
	}
	l.set("serve.hit_rps_p2", float64(len(block))/out2.Use.WallS)

	if workload == "serve-hot" {
		if err := l.clientOverhead(f, hs, block[:len(block)/4]); err != nil {
			return err
		}
	}

	vars, err := debugVars(nd)
	if err != nil {
		return err
	}
	var shed, preempted int64
	errors5xx := map[string]int64{}
	for name, dst := range map[string]any{"requests_shed_total": &shed, "requests_preempted_total": &preempted, "request_errors_total": &errors5xx} {
		if err := json.Unmarshal(vars[name], dst); err != nil {
			return fmt.Errorf("/debug/vars %s: %w", name, err)
		}
	}
	var n5xx int64
	for code, n := range errors5xx {
		if strings.HasPrefix(code, "5") {
			n5xx += n
		}
	}
	l.set("serve.requests_shed", float64(shed))
	l.set("serve.requests_preempted", float64(preempted))
	l.set("serve.errors_5xx", float64(n5xx))
	return nil
}

func (l *ledger) probeRing(f *fleet, hs *hotSet, ws warmStats, workload string, seed int64) error {
	l.set("cluster.snapshot_pull_ms", median(ws.PullMS))
	l.set("cluster.snapshot_entries", float64(ws.PulledEntries))

	keys := make([]string, len(hs.Layers))
	for i, k := range hs.Layers {
		keys[i] = search.CacheKey(k.Layer, k.Opts)
	}
	cl := f.nodes[0].cl
	ring := cl.Ring()
	n := l.reps(200000)
	sp := l.rec.begin("cluster.Ring.Home")
	for i := 0; i < n; i++ {
		_ = ring.Home(keys[i%len(keys)])
	}
	l.rec.end(sp)
	l.set("cluster.ring_home_ns", l.rec.ns(sp)/float64(n))
	sp = l.rec.begin("cluster.Route")
	for i := 0; i < n; i++ {
		_ = cl.Route(keys[i%len(keys)])
	}
	l.rec.end(sp)
	l.set("cluster.route_ns", l.rec.ns(sp)/float64(n))

	block := makeBlock(seed, hs, l.reps(6000), len(f.nodes))
	clients, closeClients := newClientPair(f, hs)
	defer closeClients()
	forwards := func() (n int64) {
		for _, nd := range f.nodes {
			n += nd.cl.Forwards()
		}
		return n
	}
	before := forwards()
	sp = l.rec.begin("cluster.block")
	out := runBlock(l.ctx, clients, block)
	l.rec.end(sp)
	for _, err := range out.Errs {
		l.op(err)
	}
	l.res.Attempted += len(block) - len(out.Errs)
	v := f.view(hs, block, out)
	// Exact for a given seed: the ring and the block are both fixed.
	l.set("cluster.forwarded_share", float64(forwards()-before)/float64(len(block)))
	l.set("cluster.local_hit_us_p50", median(v.LocalUS))
	l.set("cluster.forwarded_hit_us_p50", median(v.HopUS))
	l.set("cluster.hop_us_p50", median(v.HopUS)-median(v.LocalUS))
	l.set("cluster.degraded_responses", float64(v.Degraded))

	if workload == "cluster-hot" {
		if err := l.clientOverhead(f, hs, block[:len(block)/4]); err != nil {
			return err
		}
	}
	var failovers int64
	for _, nd := range f.nodes {
		failovers += nd.cl.Failovers()
	}
	l.set("cluster.failovers", float64(failovers))
	return nil
}
