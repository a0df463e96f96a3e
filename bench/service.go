package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flexer-sched/flexer"
	"github.com/flexer-sched/flexer/internal/cluster"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve"
)

// countingWriter is where the benchmark's servers log. It is not
// io.Discard on purpose: log.Logger skips formatting altogether when
// its writer is io.Discard, and production pays for that formatting.
type countingWriter struct{ n atomic.Int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return len(p), nil
}

// clusterPorts are fixed because the ring hashes peer URLs: with
// ephemeral ports the share of forwarded requests changes from run to
// run.
var clusterPorts = []int{18471, 18472, 18473}

// node is one in-process flexerd behind a real loopback listener.
type node struct {
	url    string
	srv    *serve.Server
	cl     *cluster.Cluster // nil single-node
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returned
	logged *countingWriter
}

// fleet is the system under test of a service workload: one node, or
// three wired into a ring.
type fleet struct{ nodes []*node }

// startFleet boots n nodes. A single node listens on an ephemeral
// port; a ring listens on clusterPorts and waits until every node sees
// every peer healthy.
func startFleet(n int) (*fleet, error) {
	lns := make([]net.Listener, 0, n)
	closeAll := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	urls := make([]string, n)
	for i := range urls {
		addr := "127.0.0.1:0"
		if n > 1 {
			addr = fmt.Sprintf("127.0.0.1:%d", clusterPorts[i])
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("listen %s: %w (cluster nodes need their fixed ports)", addr, err)
		}
		lns = append(lns, ln)
		urls[i] = "http://" + ln.Addr().String()
	}
	f := &fleet{}
	for i := range urls {
		nd := &node{url: urls[i], logged: &countingWriter{}, served: make(chan struct{})}
		logger := log.New(nd.logged, "", log.LstdFlags)
		if n > 1 {
			cl, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls, Log: logger})
			if err != nil {
				closeAll()
				return nil, err
			}
			nd.cl = cl
		}
		nd.srv = serve.New(serve.Config{Workers: 1, SearchParallelism: 1, Cluster: nd.cl, Log: logger})
		nd.hs = &http.Server{Handler: nd.srv.Handler(), ErrorLog: logger}
		f.nodes = append(f.nodes, nd)
	}
	for i, nd := range f.nodes {
		go func(nd *node, ln net.Listener) {
			defer close(nd.served)
			_ = nd.hs.Serve(ln) // always ErrServerClosed after stop
		}(nd, lns[i])
		if nd.cl != nil {
			nd.cl.Start()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range f.nodes {
		for _, peer := range urls {
			for nd.cl != nil && peer != nd.url && nd.cl.PeerState(peer) != cluster.StateHealthy {
				if time.Now().After(deadline) {
					f.stop()
					return nil, fmt.Errorf("ring not healthy: %s sees %s as %v", nd.url, peer, nd.cl.PeerState(peer))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return f, nil
}

// stop closes every listener and connection and waits for the serve
// loops and the probers to exit.
func (f *fleet) stop() {
	for _, nd := range f.nodes {
		nd.hs.Close()
		<-nd.served
	}
	for _, nd := range f.nodes {
		if nd.cl != nil {
			nd.cl.Stop()
		}
	}
}

// home returns the node whose cache owns key: the ring's home peer, or
// the only node.
func (f *fleet) home(key string) *node {
	if len(f.nodes) == 1 {
		return f.nodes[0]
	}
	h := f.nodes[0].cl.Home(key)
	for _, nd := range f.nodes {
		if nd.url == h {
			return nd
		}
	}
	return nil
}

// schedTotals are the result fields a response is checked on.
type schedTotals struct {
	Tiling  string `json:"tiling"`
	Cycles  int64  `json:"latency_cycles"`
	Traffic int64  `json:"traffic_bytes"`
}

func totalsOfSchedule(s *flexer.Schedule) schedTotals {
	return schedTotals{s.Factors.String(), s.LatencyCycles, s.TrafficBytes()}
}

// layerKey is one hot layer request and its verified reference.
type layerKey struct {
	Name  string
	Layer flexer.Conv
	Opts  flexer.Options
	Body  []byte
	// OoO and Static are the verified library results for this key.
	OoO, Static schedTotals
}

// networkKey is one hot network request and its reference totals.
type networkKey struct {
	Name    string
	Base    string // built-in table name, as the request spells it
	Scale   int
	Network flexer.Network
	Opts    flexer.Options
	Body    []byte
	Ref     networkTotals
}

// networkTotals are the response fields a network reply is checked on.
type networkTotals struct {
	OoOCycles     int64 `json:"ooo_cycles"`
	StaticCycles  int64 `json:"static_cycles"`
	OoOTraffic    int64 `json:"ooo_traffic_bytes"`
	StaticTraffic int64 `json:"static_traffic_bytes"`
	Layers        int   `json:"-"`
}

// hotSet is the fixed key set of the service workloads. It fits every
// cache on purpose: eviction order under concurrent misses does not
// repeat.
type hotSet struct {
	Layers   []layerKey
	Networks []networkKey
}

// serviceOptions are the options the server resolves for a request
// that names a preset arch and nothing else.
func serviceOptions(archName string) flexer.Options {
	return flexer.Options{Arch: machine(archName), Budget: flexer.QuickBudget(), Metric: flexer.MetricDefault()}
}

// hotScale is the spatial down-scaling of every network the service
// workloads and the ledger use.
const hotScale = 8

// newHotSet builds the request bodies of the hot set: every layer of
// {squeezenet, vgg16}/8 on arch1 and arch4 as an inline-shape layer
// request, and each network on arch1 as a network request. References
// are filled in by warm once the system under test has computed them.
func newHotSet(size sizing) (*hotSet, error) {
	networks, archs, scale, maxLayers := []string{"squeezenet", "vgg16"}, []string{"arch1", "arch4"}, hotScale, 0
	if size.Smoke {
		networks, archs, scale, maxLayers = networks[:1], archs[:1], smokeScale, 5
	}
	hs := &hotSet{}
	for _, nn := range networks {
		n, err := flexer.NetworkByName(nn)
		if err != nil {
			return nil, err
		}
		n = n.Scale(scale)
		for ai, an := range archs {
			for li, l := range n.Layers {
				if maxLayers > 0 && li >= maxLayers {
					break
				}
				shape := serve.ConvJSON{Name: l.Name, InH: l.InH, InW: l.InW, InC: l.InC, OutC: l.OutC,
					KerH: l.KerH, KerW: l.KerW, StrideH: l.StrideH, StrideW: l.StrideW,
					PadH: l.PadH, PadW: l.PadW, ElemBytes: l.ElemBytes}
				if shape.Conv() != l {
					// The wire shape cannot say "no padding" for a kernel
					// wider than 1 (0 means ker/2), so such a layer
					// (squeezenet's conv1) is reachable only through its
					// network request.
					continue
				}
				body, err := json.Marshal(serve.LayerRequest{Arch: an, Shape: &shape})
				if err != nil {
					return nil, err
				}
				hs.Layers = append(hs.Layers, layerKey{
					Name: n.Name + "." + an + "/" + l.Name, Layer: l, Opts: serviceOptions(an), Body: body})
			}
			if ai == 0 {
				body, err := json.Marshal(serve.NetworkRequest{Arch: an, Network: nn, Scale: scale})
				if err != nil {
					return nil, err
				}
				hs.Networks = append(hs.Networks, networkKey{Name: n.Name + "." + an, Base: nn, Scale: scale, Network: n, Opts: serviceOptions(an), Body: body})
			}
		}
	}
	return hs, nil
}

// Request kinds of the service mix.
const (
	kindLayer = iota
	kindStream
	kindNetwork
	numKinds
)

var kindNames = [numKinds]string{"layer", "stream", "network"}

// request is one generated request: what to ask and which node to ask.
type request struct {
	Kind uint8
	Key  int // index into hotSet.Layers or hotSet.Networks
	Node int
}

// zipfCounts splits total into n counts in Zipf(1.1) proportions, rank 0
// the most popular (the weights of rand.NewZipf(_, 1.1, 1, n-1)), by
// rounding the cumulative share so the counts add up exactly.
func zipfCounts(total, n int) []int {
	cum := make([]float64, n)
	var sum float64
	for r := range cum {
		sum += math.Pow(float64(1+r), -1.1)
		cum[r] = sum
	}
	counts := make([]int, n)
	done := 0
	for r := range counts {
		upTo := int(math.Round(cum[r] / sum * float64(total)))
		counts[r], done = upTo-done, upTo
	}
	return counts
}

// makeBlock builds one block of size requests. What a block asks for is
// the same for every seed: every key once, then unary layer, streamed
// layer and network requests 90/5/5, the layer keys in Zipf(1.1)
// proportions over a fixed popularity order, each key's requests dealt
// round-robin over the nodes. The seed decides the order alone — and so
// what is in flight together and what each connection carries — because
// replies differ in size by key: with popularity drawn from the seed one
// seed's block costs up to a fifth more than another's, which is spread
// between runs that says nothing about the program.
func makeBlock(seed int64, hs *hotSet, size, nodes int) []request {
	networks := max(size/20, len(hs.Networks))
	streams := size / 20
	unary := size - networks - streams
	reqs := make([]request, 0, size)
	sent := map[[2]int]int{} // (kind, key) -> requests so far
	add := func(kind, key, n int) {
		for ; n > 0; n-- {
			reqs = append(reqs, request{Kind: uint8(kind), Key: key, Node: (key + sent[[2]int{kind, key}]) % nodes})
			sent[[2]int{kind, key}]++
		}
	}
	rank := rand.New(rand.NewSource(1)).Perm(len(hs.Layers)) // popularity order, the same for every seed
	for r, n := range zipfCounts(unary-len(hs.Layers), len(hs.Layers)) {
		add(kindLayer, rank[r], 1+n)
	}
	for r, n := range zipfCounts(streams, len(hs.Layers)) {
		add(kindStream, rank[r], n)
	}
	for k := range hs.Networks {
		add(kindNetwork, k, (networks+k)/len(hs.Networks))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// layerReply and networkReply decode just the fields a reply is
// checked on, so the in-process client stays a small part of the
// measured CPU.
type layerReply struct {
	OoO             schedTotals `json:"ooo"`
	Static          schedTotals `json:"static"`
	ElapsedMS       float64     `json:"elapsed_ms"`
	ServedBy        string      `json:"served_by"`
	DegradedRouting bool        `json:"degraded_routing"`
}

type networkReply struct {
	networkTotals
	Layers          []json.RawMessage `json:"layers"`
	ElapsedMS       float64           `json:"elapsed_ms"`
	ServedBy        string            `json:"served_by"`
	DegradedRouting bool              `json:"degraded_routing"`
}

// streamTail is the terminal event of an NDJSON stream.
type streamTail struct {
	Event       string      `json:"event"`
	LayerResult *layerReply `json:"layer_result"`
	Error       string      `json:"error"`
}

// client is one closed-loop caller: it owns its connections and sends
// its next request only after the previous reply is checked.
type client struct {
	hc   *http.Client
	urls []string
	hs   *hotSet
	buf  bytes.Buffer
}

func newClient(f *fleet, hs *hotSet) *client {
	c := &client{hs: hs, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	for _, nd := range f.nodes {
		c.urls = append(c.urls, nd.url)
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// newClientPair returns the two closed-loop clients every block is sent
// from, and the function that closes their connections.
func newClientPair(f *fleet, hs *hotSet) ([]*client, func()) {
	clients := []*client{newClient(f, hs), newClient(f, hs)}
	return clients, func() {
		for _, c := range clients {
			c.close()
		}
	}
}

// reply is what one round trip returned.
type reply struct {
	Latency   time.Duration // request sent to body fully read
	Bytes     int
	Layers    int // layer results delivered
	ElapsedMS float64
	ServedBy  string
	Degraded  bool
	// OoO and Static are set on layer replies, Net on network replies.
	OoO, Static schedTotals
	Net         networkTotals
}

var paths = [numKinds]string{"/v1/schedule/layer", "/v1/schedule/layer?stream=1", "/v1/schedule/network"}

// roundTrip sends one request and decodes the reply. Transport errors,
// non-2xx statuses and undecodable or unfinished replies are errors.
func (c *client) roundTrip(ctx context.Context, rq request) (reply, error) {
	var body []byte
	if rq.Kind == kindNetwork {
		body = c.hs.Networks[rq.Key].Body
	} else {
		body = c.hs.Layers[rq.Key].Body
	}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.urls[rq.Node]+paths[rq.Kind], bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rep := reply{Latency: time.Since(start), Bytes: c.buf.Len()}
	if err != nil {
		return rep, err
	}
	if resp.StatusCode/100 != 2 {
		return rep, fmt.Errorf("status %d: %.120s", resp.StatusCode, c.buf.Bytes())
	}
	if rq.Kind == kindNetwork {
		var nr networkReply
		if err := json.Unmarshal(c.buf.Bytes(), &nr); err != nil {
			return rep, err
		}
		rep.Net = nr.networkTotals
		rep.Net.Layers = len(nr.Layers)
		rep.Layers, rep.ElapsedMS, rep.ServedBy, rep.Degraded = len(nr.Layers), nr.ElapsedMS, nr.ServedBy, nr.DegradedRouting
		return rep, nil
	}
	var lr layerReply
	if rq.Kind == kindStream {
		b := bytes.TrimRight(c.buf.Bytes(), "\n")
		if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
			b = b[i+1:]
		}
		var tail streamTail
		if err := json.Unmarshal(b, &tail); err != nil {
			return rep, err
		}
		if tail.Event != "result" || tail.LayerResult == nil {
			return rep, fmt.Errorf("stream ended with %q %s", tail.Event, tail.Error)
		}
		lr = *tail.LayerResult
	} else if err := json.Unmarshal(c.buf.Bytes(), &lr); err != nil {
		return rep, err
	}
	rep.OoO, rep.Static = lr.OoO, lr.Static
	rep.Layers, rep.ElapsedMS, rep.ServedBy, rep.Degraded = 1, lr.ElapsedMS, lr.ServedBy, lr.DegradedRouting
	return rep, nil
}

// check compares a reply with its key's verified reference. A reply
// served off its home peer counts as failed too: the ring is healthy.
func (hs *hotSet) check(rq request, rep reply) error {
	if rep.Degraded {
		return fmt.Errorf("degraded routing on a healthy ring")
	}
	if rq.Kind == kindNetwork {
		if key := &hs.Networks[rq.Key]; rep.Net != key.Ref {
			return fmt.Errorf("%s: reply %+v, reference %+v", key.Name, rep.Net, key.Ref)
		}
		return nil
	}
	if key := &hs.Layers[rq.Key]; rep.OoO != key.OoO || rep.Static != key.Static {
		return fmt.Errorf("%s: reply ooo %+v static %+v, reference ooo %+v static %+v", key.Name, rep.OoO, rep.Static, key.OoO, key.Static)
	}
	return nil
}

// do is roundTrip plus check.
func (c *client) do(ctx context.Context, rq request) (reply, error) {
	rep, err := c.roundTrip(ctx, rq)
	if err == nil {
		err = c.hs.check(rq, rep)
	}
	return rep, err
}

// warmStats is what cache warm-up observed, for the per-layer ledger.
type warmStats struct {
	MissMS, MissOverheadUS []float64
	PullMS                 []float64
	PulledEntries          int
}

// warm fills the caches the way a booting deployment does: the network
// requests first (each sweep runs on its home node and leaves every
// layer it searched there), then one snapshot pull per ring node from
// its successor (a node receives the entries it is home to that the
// successor happened to compute), then every layer request, dealt over
// the nodes like real traffic — a hit where a sweep or a pull already
// left the entry, a cold search where not (every arch4 key, and the
// arch1 keys no pull delivered). Round trips that ran a search are
// recorded as misses. Finally it reads the verified reference of every
// key back out of its home node's cache through the library; reading it
// there instead of searching again keeps set-up short and fails if the
// benchmark's idea of a key ever disagrees with the server's.
func (f *fleet) warm(ctx context.Context, hs *hotSet) (warmStats, error) {
	var ws warmStats
	c := newClient(f, hs)
	defer c.close()
	searches := func() (n int64) {
		for _, nd := range f.nodes {
			n += nd.srv.Cache().Stats().Misses
		}
		return n
	}
	// References are not known yet, so warm-up requires only that the
	// round trip succeeds.
	send := func(rq request) error {
		before := searches()
		rep, err := c.roundTrip(ctx, rq)
		if err != nil {
			return err
		}
		if rq.Kind == kindLayer && searches() > before {
			ws.MissMS = append(ws.MissMS, float64(rep.Latency)/float64(time.Millisecond))
			ws.MissOverheadUS = append(ws.MissOverheadUS, float64(rep.Latency)/float64(time.Microsecond)-rep.ElapsedMS*1000)
		}
		return nil
	}
	for k := range hs.Networks {
		if err := send(request{Kind: kindNetwork, Key: k, Node: k % len(f.nodes)}); err != nil {
			return ws, fmt.Errorf("warm %s: %w", hs.Networks[k].Name, err)
		}
	}
	for _, nd := range f.nodes {
		if nd.cl == nil {
			continue
		}
		start := time.Now()
		n, err := nd.srv.PullSnapshot(ctx, nd.cl.SuccessorOf(nd.url))
		if err != nil {
			return ws, err
		}
		ws.PullMS = append(ws.PullMS, float64(time.Since(start))/float64(time.Millisecond))
		ws.PulledEntries += n
	}
	for k := range hs.Layers {
		if err := send(request{Kind: kindLayer, Key: k, Node: k % len(f.nodes)}); err != nil {
			return ws, fmt.Errorf("warm %s: %w", hs.Layers[k].Name, err)
		}
	}
	return ws, f.reference(ctx, hs)
}

// reference reads every key's library result from its home cache,
// verifies it, and stores it as what replies must equal.
func (f *fleet) reference(ctx context.Context, hs *hotSet) error {
	var vs verifyStats
	for k := range hs.Layers {
		key := &hs.Layers[k]
		nd := f.home(search.CacheKey(key.Layer, key.Opts))
		if nd == nil {
			return fmt.Errorf("%s: no home node", key.Name)
		}
		cache := nd.srv.Cache()
		before := cache.Stats().Misses
		opts := key.Opts
		opts.Cache, opts.Workers = cache, 1
		lr, err := flexer.SearchLayerCtx(ctx, key.Layer, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", key.Name, err)
		}
		if cache.Stats().Misses != before {
			return fmt.Errorf("%s: warm-up left no entry under the library's cache key", key.Name)
		}
		if err := verifyNetwork(&flexer.NetworkResult{Layers: []*flexer.LayerResult{lr}}, opts, &vs); err != nil {
			return fmt.Errorf("%s: %w", key.Name, err)
		}
		key.OoO, key.Static = totalsOfSchedule(lr.BestOoO), totalsOfSchedule(lr.BestStatic)
	}
	for k := range hs.Networks {
		key := &hs.Networks[k]
		nd := f.home(search.NetworkKey(key.Base, key.Scale, key.Opts))
		if nd == nil {
			return fmt.Errorf("%s: no home node", key.Name)
		}
		cache := nd.srv.Cache()
		before := cache.Stats().Misses
		opts := key.Opts
		opts.Cache, opts.Workers = cache, 1
		nr, err := flexer.SearchNetworkCtx(ctx, key.Network, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", key.Name, err)
		}
		if cache.Stats().Misses != before {
			return fmt.Errorf("%s: home node is missing layers of its own network", key.Name)
		}
		key.Ref.OoOCycles, key.Ref.StaticCycles, key.Ref.OoOTraffic, key.Ref.StaticTraffic = nr.Totals()
		key.Ref.Layers = len(nr.Layers)
	}
	return nil
}

// sliceRow is one block of a service run. Quiet marks the slices the
// reported metrics are taken over.
type sliceRow struct {
	Requests int     `json:"requests"`
	RPS      float64 `json:"rps"`
	P50MS    float64 `json:"p50_ms"`
	TailMS   float64 `json:"tail_ms"`
	Quiet    bool    `json:"quiet,omitempty"`
}

// blockOutcome is what one pass over the block cost and delivered.
type blockOutcome struct {
	Use     usage
	Layers  int
	Replies [][]reply // per client, in send order; Latency 0 marks a failure
	Errs    []error
}

// runBlock sends the block once from two closed-loop clients (client c
// takes requests c, c+2, ...). With two connections no request ever
// queues for admission; contention is a per-layer number only.
func runBlock(ctx context.Context, clients []*client, block []request) blockOutcome {
	out := blockOutcome{Replies: make([][]reply, len(clients))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	m := startMeter()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			reps := make([]reply, 0, len(block)/len(clients)+1)
			layers := 0
			var errs []error
			for i := ci; i < len(block); i += len(clients) {
				rep, err := c.do(ctx, block[i])
				if err != nil {
					rep.Latency = 0
					errs = append(errs, err)
				}
				layers += rep.Layers
				reps = append(reps, rep)
			}
			mu.Lock()
			out.Replies[ci] = reps
			out.Layers += layers
			out.Errs = append(out.Errs, errs...)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	out.Use = m.stop()
	return out
}

// serviceBlockSize is sized so a block takes about a third of a second
// on the sandbox — a run is cut into some fifty slices, short enough
// that a good many fall between the machine's slow spells — and still
// holds over a thousand samples, enough for a p99.
func serviceBlockSize(nodes int, size sizing) int {
	if size.Smoke {
		return 400
	}
	if nodes > 1 {
		return 2000
	}
	return 4000
}

// runService measures a service workload: set up (several times, for a
// median set-up time), then send the seeded block again and again until
// the time budget is spent. Each pass is one slice; the reported
// throughput, latencies and CPU time are medians over the quiet slices,
// the fastest fifth (see quiet).
func runService(ctx context.Context, nodes int, seed int64, budget time.Duration, size sizing) (*result, error) {
	res := newResult()
	var (
		f      *fleet
		hs     *hotSet
		setupS []float64
	)
	for i := 0; i < size.ServiceSetups; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		var err error
		if hs, err = newHotSet(size); err != nil {
			return nil, err
		}
		if f, err = startFleet(nodes); err != nil {
			return nil, err
		}
		if _, err = f.warm(ctx, hs); err != nil {
			f.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer f.stop()

	block := makeBlock(seed, hs, serviceBlockSize(nodes, size), nodes)
	clients, closeClients := newClientPair(f, hs)
	defer closeClients()
	// One untimed pass over a short prefix opens the keep-alive
	// connections (client and peer-to-peer).
	if out := runBlock(ctx, clients, block[:len(block)/20]); len(out.Errs) > 0 {
		return nil, fmt.Errorf("set-up: %w", errors.Join(out.Errs...))
	}

	var wall, lps, p50, tail, cpu, alloc []float64
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin) < budget; round++ {
		out := runBlock(ctx, clients, block)
		res.Attempted += len(block)
		for _, err := range out.Errs {
			res.fail(err)
		}
		var lat []float64
		for _, reps := range out.Replies {
			for _, rep := range reps {
				if rep.Latency > 0 {
					lat = append(lat, float64(rep.Latency)/float64(time.Millisecond))
				}
			}
		}
		t := summarize(lat)
		layers := float64(out.Layers)
		wall = append(wall, out.Use.WallS)
		lps = append(lps, layers/out.Use.WallS)
		p50 = append(p50, t.P50)
		tail = append(tail, t.Tail)
		cpu = append(cpu, out.Use.CPUMS/layers)
		alloc = append(alloc, out.Use.AllocKB/layers)
		res.Samples, res.TailPercentile = t.Samples, t.TailPercentile
		res.Slices = append(res.Slices, sliceRow{Requests: len(block), RPS: float64(len(block)) / out.Use.WallS, P50MS: t.P50, TailMS: t.Tail})
	}
	res.Rounds = len(lps)
	q := quiet(wall)
	for _, k := range q {
		res.Slices[k].Quiet = true
	}

	// Every key was requested in every block and every reply was
	// checked against its reference, so the references are the replies.
	var sim simTotals
	for _, k := range hs.Layers {
		sim.OoOCycles += k.OoO.Cycles
		sim.OoOTraffic += k.OoO.Traffic
		sim.StaticCycles += k.Static.Cycles
		sim.Scores = append(sim.Scores, float64(k.OoO.Cycles)*float64(k.OoO.Traffic))
	}
	res.endToEnd(endToEnd{
		SetupS:          median(setupS),
		LayersPerS:      quietMedian(lps, q),
		LatencyP50MS:    quietMedian(p50, q),
		LatencyTailMS:   quietMedian(tail, q),
		CPUMSPerLayer:   quietMedian(cpu, q),
		AllocKBPerLayer: median(alloc),
		Sim:             sim,
	})
	for _, nd := range f.nodes {
		if nd.cl != nil && nd.cl.Failovers() != 0 {
			res.fail(fmt.Errorf("%s: %d failovers on a healthy ring", nd.url, nd.cl.Failovers()))
		}
	}
	return res, nil
}
