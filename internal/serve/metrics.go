package serve

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// metrics is the observability surface of one Server: request and
// error counters, cache hit/miss ratios, search-latency histograms and
// in-flight gauges, all published in expvar's JSON format on GET
// /debug/vars.
//
// Vars are held per-Server instead of in expvar's process-global
// registry so that multiple servers (tests, embedding) never collide;
// the /debug/vars handler renders this registry in the exact wire
// format of expvar.Handler.
type metrics struct {
	mu   sync.Mutex
	vars []namedVar

	requests  *expvar.Map // requests_total by endpoint
	errors    *expvar.Map // request_errors_total by HTTP status code
	inflight  *expvar.Int // requests currently being handled
	searching *expvar.Int // searches currently holding a worker slot
	shed      *expvar.Int // requests rejected by admission control (429)
	progress  *expvar.Int // progress_events_total written to NDJSON streams
	preempted *expvar.Int // running searches aborted for a higher-priority arrival
	requeued  *expvar.Int // preempted searches re-enqueued and restarted
	panics    *expvar.Int // search functions that panicked (slot recovered, 500 returned)
	latency   *latencyHist
	netLat    *latencyHist
}

// namedVar pairs an expvar.Var with its published name.
type namedVar struct {
	name string
	v    expvar.Var
}

// newMetrics builds the registry for one server.
func newMetrics() *metrics {
	m := &metrics{
		requests:  new(expvar.Map).Init(),
		errors:    new(expvar.Map).Init(),
		inflight:  new(expvar.Int),
		searching: new(expvar.Int),
		shed:      new(expvar.Int),
		progress:  new(expvar.Int),
		preempted: new(expvar.Int),
		requeued:  new(expvar.Int),
		panics:    new(expvar.Int),
		latency:   newLatencyHist(),
		netLat:    newLatencyHist(),
	}
	m.publish("requests_total", m.requests)
	m.publish("request_errors_total", m.errors)
	m.publish("requests_inflight", m.inflight)
	m.publish("searches_inflight", m.searching)
	m.publish("requests_shed_total", m.shed)
	m.publish("progress_events_total", m.progress)
	m.publish("requests_preempted_total", m.preempted)
	m.publish("requests_requeued_total", m.requeued)
	m.publish("search_panics_total", m.panics)
	m.publish("search_latency_ms", m.latency)
	m.publish("network_search_latency_ms", m.netLat)
	return m
}

// publish registers v under name; names are rendered in sorted order.
func (m *metrics) publish(name string, v expvar.Var) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vars = append(m.vars, namedVar{name, v})
	sort.Slice(m.vars, func(i, j int) bool { return m.vars[i].name < m.vars[j].name })
}

// ServeHTTP renders every published var as one JSON object, matching
// expvar.Handler's format.
func (m *metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	m.mu.Lock()
	vars := make([]namedVar, len(m.vars))
	copy(vars, m.vars)
	m.mu.Unlock()
	fmt.Fprintf(w, "{\n")
	for i, nv := range vars {
		if i > 0 {
			fmt.Fprintf(w, ",\n")
		}
		fmt.Fprintf(w, "%q: %s", nv.name, nv.v.String())
	}
	fmt.Fprintf(w, "\n}\n")
}

// latencyBoundsMS are the upper bounds (milliseconds, inclusive) of the
// histogram buckets; the last bucket is unbounded. Spanning 1 ms to
// 60 s covers everything from a cache hit to a default-budget layer
// search.
var latencyBoundsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// latencyHist is a fixed-bucket latency histogram implementing
// expvar.Var.
// latencyEWMAAlpha weights the newest observation in the decayed mean:
// ~0.3 means the last handful of requests dominate, so one cold
// multi-minute sweep stops distorting Retry-After hints after a few
// fast requests instead of for the life of the process.
const latencyEWMAAlpha = 0.3

type latencyHist struct {
	mu      sync.Mutex
	count   int64
	sumMS   float64
	maxMS   float64
	ewmaMS  float64
	buckets []int64 // len(latencyBoundsMS)+1, last = overflow
}

// newLatencyHist returns an empty histogram.
func newLatencyHist() *latencyHist {
	return &latencyHist{buckets: make([]int64, len(latencyBoundsMS)+1)}
}

// observe records one duration.
func (h *latencyHist) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sumMS += ms
	if h.count == 1 {
		h.ewmaMS = ms
	} else {
		h.ewmaMS = latencyEWMAAlpha*ms + (1-latencyEWMAAlpha)*h.ewmaMS
	}
	if ms > h.maxMS {
		h.maxMS = ms
	}
	for i, b := range latencyBoundsMS {
		if ms <= b {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(h.buckets)-1]++
}

// decayedMeanMS returns the exponentially-decayed mean latency in
// milliseconds, or 0 before any observation. Admission control derives
// Retry-After estimates from it instead of the lifetime mean, which
// never recovers from one cold multi-minute search.
func (h *latencyHist) decayedMeanMS() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ewmaMS
}

// String renders the histogram as JSON: count, sum, mean, max and the
// per-bucket counts keyed by upper bound ("le_<ms>", "le_inf").
func (h *latencyHist) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	mean := 0.0
	if h.count > 0 {
		mean = h.sumMS / float64(h.count)
	}
	s := fmt.Sprintf(`{"count": %d, "sum_ms": %.3f, "mean_ms": %.3f, "ewma_ms": %.3f, "max_ms": %.3f, "buckets": {`,
		h.count, h.sumMS, mean, h.ewmaMS, h.maxMS)
	for i, b := range latencyBoundsMS {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf(`"le_%g": %d`, b, h.buckets[i])
	}
	s += fmt.Sprintf(`, "le_inf": %d}}`, h.buckets[len(h.buckets)-1])
	return s
}
