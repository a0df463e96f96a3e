package serve

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"github.com/flexer-sched/flexer/internal/arch"
	"github.com/flexer-sched/flexer/internal/fault"
	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
	"github.com/flexer-sched/flexer/internal/sched"
	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve/admission"
	"github.com/flexer-sched/flexer/internal/spm"
	"github.com/flexer-sched/flexer/internal/trace"
)

// ConvJSON is the wire form of a convolution layer shape. Dimensions
// are in elements. Only InH, InW, InC, OutC and KerH are required;
// KerW defaults to KerH, strides to 1, paddings to ker/2 ("same"), and
// ElemBytes to 2 (fp16), matching layer.NewConv.
type ConvJSON struct {
	Name      string `json:"name,omitempty"`
	InH       int    `json:"in_h"`
	InW       int    `json:"in_w"`
	InC       int    `json:"in_c"`
	OutC      int    `json:"out_c"`
	KerH      int    `json:"ker_h"`
	KerW      int    `json:"ker_w,omitempty"`
	StrideH   int    `json:"stride_h,omitempty"`
	StrideW   int    `json:"stride_w,omitempty"`
	PadH      int    `json:"pad_h,omitempty"`
	PadW      int    `json:"pad_w,omitempty"`
	ElemBytes int    `json:"elem_bytes,omitempty"`
}

// Conv converts the wire shape into a layer.Conv, applying defaults
// for omitted fields.
func (c ConvJSON) Conv() layer.Conv {
	l := layer.Conv{
		Name: c.Name,
		InH:  c.InH, InW: c.InW, InC: c.InC,
		OutC: c.OutC,
		KerH: c.KerH, KerW: c.KerW,
		StrideH: c.StrideH, StrideW: c.StrideW,
		PadH: c.PadH, PadW: c.PadW,
		ElemBytes: c.ElemBytes,
	}
	l.Name = cmp.Or(l.Name, "adhoc")
	l.KerW = cmp.Or(l.KerW, l.KerH)
	l.StrideH = cmp.Or(l.StrideH, 1)
	l.StrideW = cmp.Or(l.StrideW, 1)
	l.PadH = cmp.Or(l.PadH, l.KerH/2)
	l.PadW = cmp.Or(l.PadW, l.KerW/2)
	l.ElemBytes = cmp.Or(l.ElemBytes, 2)
	return l
}

// ArchJSON is the wire form of a custom hardware configuration (the
// alternative to naming a Table 1 preset). The PE geometry and clock
// are fixed to the paper's 32x32 @ 1 GHz.
type ArchJSON struct {
	Name                   string `json:"name"`
	Cores                  int    `json:"cores"`
	SPMKiB                 int64  `json:"spm_kib"`
	BandwidthBytesPerCycle int    `json:"bandwidth_bytes_per_cycle"`
}

// Config converts the wire form into an arch.Config.
func (a ArchJSON) Config() arch.Config {
	return arch.New(cmp.Or(a.Name, "custom"), a.Cores, arch.KiB(a.SPMKiB), a.BandwidthBytesPerCycle)
}

// SearchOptionsJSON is the option block shared by layer and network
// requests. Every field is optional; the zero value means the paper's
// defaults with the server's QuickBudget-vs-DefaultBudget choice left
// to "budget".
type SearchOptionsJSON struct {
	// Budget selects the search effort: "quick" or "default"
	// (empty = "quick"; "default" is minutes of work on large layers).
	Budget string `json:"budget,omitempty"`
	// Priority selects the set priority function: "default",
	// "min-transfer", "min-spill" or "chain-depth".
	Priority string `json:"priority,omitempty"`
	// MemPolicy selects the spill policy: "flexer", "first-fit" or
	// "small-spill".
	MemPolicy string `json:"mem_policy,omitempty"`
	// Metric selects the ranking metric: "default" (latency x traffic)
	// or "min-transfer".
	Metric string `json:"metric,omitempty"`
	// FuseDepth enables the inter-layer fusion pass on network requests:
	// up to this many consecutive layer boundaries may be scheduled as
	// one fused graph when doing so strictly wins on both cycles and
	// traffic (0 = layerwise; ignored on layer requests). Fused and
	// layerwise requests share the layer results the pass runs on.
	FuseDepth int `json:"fuse_depth,omitempty"`
}

// LayerRequest is the body of POST /v1/schedule/layer. The layer comes
// either from a built-in network table (Network + Layer) or inline
// (Shape); the hardware either from a preset name (Arch) or inline
// (CustomArch).
type LayerRequest struct {
	// Arch names a Table 1 preset ("arch1".."arch8").
	Arch string `json:"arch,omitempty"`
	// CustomArch describes ad-hoc hardware instead of a preset.
	CustomArch *ArchJSON `json:"custom_arch,omitempty"`
	// Network and Layer select a layer from a built-in network table
	// (e.g. "vgg16" / "conv3_1").
	Network string `json:"network,omitempty"`
	Layer   string `json:"layer,omitempty"`
	// Shape is an inline layer shape, the alternative to Network/Layer.
	Shape *ConvJSON `json:"shape,omitempty"`
	// Options tune the search; the zero value is a quick default run.
	Options SearchOptionsJSON `json:"options,omitempty"`
	// FaultPlan, when present and non-empty, additionally evaluates the
	// degraded mode of the best schedule under the given faults (core
	// deaths, flaky windows, DMA derates) and attaches it to the
	// response. The plan must leave at least one core alive.
	FaultPlan *fault.Plan `json:"fault_plan,omitempty"`
	// TimeoutMS bounds the search wall-clock for this request in
	// milliseconds (0 = server default; capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tenant names the admission-scheduler tenant that queues and is
	// billed for this request; the X-Flexer-Tenant header is the
	// alternative (the body field wins when both are set, and empty
	// means the server's default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Full includes the per-op and per-DMA timelines in the response
	// schedules (can be large: one record per tile operation).
	Full bool `json:"full,omitempty"`
}

// NetworkRequest is the body of POST /v1/schedule/network.
type NetworkRequest struct {
	// Arch names a Table 1 preset; CustomArch is the inline alternative.
	Arch       string    `json:"arch,omitempty"`
	CustomArch *ArchJSON `json:"custom_arch,omitempty"`
	// Network names a built-in table: "vgg16", "resnet50",
	// "squeezenet" or "yolov2".
	Network string `json:"network"`
	// Scale divides the spatial dimensions by this factor (0 or 1 =
	// full size); scaled runs finish much faster.
	Scale int `json:"scale,omitempty"`
	// Options tune the search; the zero value is a quick default run.
	Options SearchOptionsJSON `json:"options,omitempty"`
	// FaultPlan, when present and non-empty, evaluates every layer's
	// degraded mode under the given faults (see LayerRequest.FaultPlan).
	FaultPlan *fault.Plan `json:"fault_plan,omitempty"`
	// TimeoutMS bounds the search wall-clock for this request in
	// milliseconds (0 = server default; capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tenant names the admission-scheduler tenant that queues and is
	// billed for this request; see LayerRequest.Tenant.
	Tenant string `json:"tenant,omitempty"`
}

// LayerResponse is the body returned by POST /v1/schedule/layer.
type LayerResponse struct {
	// Layer and Arch echo what was scheduled.
	Layer string `json:"layer"`
	Arch  string `json:"arch"`
	// Candidates is the number of tilings with an out-of-order schedule
	// the search ran to completion (not pruned, not every run abandoned).
	Candidates int `json:"candidates"`
	// OoO and Static are the best out-of-order and static loop-order
	// schedules, in the same JSON shape as the flexer CLI's -json
	// export.
	OoO    trace.Summary `json:"ooo"`
	Static trace.Summary `json:"static"`
	// StaticOrder names the winning baseline dataflow.
	StaticOrder string `json:"static_order"`
	// Speedup is static latency / OoO latency (>1 means OoO wins);
	// TrafficReduction is the same ratio for transferred bytes.
	Speedup          float64 `json:"speedup"`
	TrafficReduction float64 `json:"traffic_reduction"`
	// Degraded is the best OoO schedule repaired around the request's
	// fault_plan; present only when the request carried one.
	Degraded *trace.Summary `json:"degraded,omitempty"`
	// DegradedRatio is degraded latency / nominal OoO latency (>= 1; 1
	// means the faults cost nothing); 0 without a fault_plan.
	DegradedRatio float64 `json:"degraded_ratio,omitempty"`
	// ElapsedMS is the server-side search time for this request; a
	// cache hit reports sub-millisecond values.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ServedBy is the advertise URL of the node that ran the search;
	// empty outside cluster mode.
	ServedBy string `json:"served_by,omitempty"`
	// DegradedRouting marks a cluster response served off its down home
	// peer — correct, but without that peer's warm cache.
	DegradedRouting bool `json:"degraded_routing,omitempty"`
}

// NetworkLayerJSON is one per-layer row of a network response.
type NetworkLayerJSON struct {
	Layer            string  `json:"layer"`
	Tiling           string  `json:"tiling"`
	OoOCycles        int64   `json:"ooo_cycles"`
	StaticCycles     int64   `json:"static_cycles"`
	OoOTrafficBytes  int64   `json:"ooo_traffic_bytes"`
	StaticTraffic    int64   `json:"static_traffic_bytes"`
	StaticOrder      string  `json:"static_order"`
	Speedup          float64 `json:"speedup"`
	TrafficReduction float64 `json:"traffic_reduction"`
	// DegradedCycles and DegradedRatio report this layer's fault-plan
	// repair; zero without a fault_plan in the request.
	DegradedCycles int64   `json:"degraded_cycles,omitempty"`
	DegradedRatio  float64 `json:"degraded_ratio,omitempty"`
}

// FusedSegmentJSON is one accepted fused segment of a network response:
// a run of consecutive layers scheduled as a single cross-layer graph.
type FusedSegmentJSON struct {
	// FirstLayer and LastLayer name the segment's inclusive bounds.
	FirstLayer string `json:"first_layer"`
	LastLayer  string `json:"last_layer"`
	// Cycles and TrafficBytes are the fused schedule's totals; the
	// Layerwise fields are the member layers' summed best layerwise
	// schedules the segment strictly beat.
	Cycles          int64 `json:"cycles"`
	TrafficBytes    int64 `json:"traffic_bytes"`
	LayerwiseCycles int64 `json:"layerwise_cycles"`
	LayerwiseBytes  int64 `json:"layerwise_traffic_bytes"`
	// GatherBytes is the on-chip producer-to-consumer volume that never
	// touched DRAM — the fusion win's mechanism.
	GatherBytes int64 `json:"gather_bytes"`
	// DegradedCycles reports the segment's fault-plan repair; zero
	// without a fault_plan in the request.
	DegradedCycles int64 `json:"degraded_cycles,omitempty"`
}

// FusionBoundaryJSON reports the fusion pass's verdict on one layer
// boundary it visited.
type FusionBoundaryJSON struct {
	Producer string `json:"producer"`
	Consumer string `json:"consumer"`
	Fused    bool   `json:"fused"`
	Reason   string `json:"reason"`
}

// NetworkResponse is the body returned by POST /v1/schedule/network.
type NetworkResponse struct {
	Network string             `json:"network"`
	Arch    string             `json:"arch"`
	Layers  []NetworkLayerJSON `json:"layers"`
	// End-to-end totals across all layers. Layers inside a fused
	// segment contribute the segment's fused schedule to the OoO
	// totals; their per-layer rows still report the layerwise bests.
	OoOCycles           int64   `json:"ooo_cycles"`
	StaticCycles        int64   `json:"static_cycles"`
	OoOTrafficBytes     int64   `json:"ooo_traffic_bytes"`
	StaticTrafficBytes  int64   `json:"static_traffic_bytes"`
	Speedup             float64 `json:"speedup"`
	TrafficReduction    float64 `json:"traffic_reduction"`
	DegradedCycles      int64   `json:"degraded_cycles,omitempty"`
	DegradedRatio       float64 `json:"degraded_ratio,omitempty"`
	ElapsedMS           float64 `json:"elapsed_ms"`
	DistinctLayerShapes int     `json:"distinct_layer_shapes"`
	// FuseDepth echoes the request's fusion setting; Segments and
	// Boundaries report what the pass did (absent when layerwise).
	FuseDepth  int                  `json:"fuse_depth,omitempty"`
	Segments   []FusedSegmentJSON   `json:"fused_segments,omitempty"`
	Boundaries []FusionBoundaryJSON `json:"fusion_boundaries,omitempty"`
	// ServedBy and DegradedRouting mirror LayerResponse's cluster
	// routing fields.
	ServedBy        string `json:"served_by,omitempty"`
	DegradedRouting bool   `json:"degraded_routing,omitempty"`
}

// PresetArchJSON is one hardware preset row of GET /v1/presets.
type PresetArchJSON = ArchJSON

// PresetNetworkJSON is one network row of GET /v1/presets.
type PresetNetworkJSON struct {
	Name   string   `json:"name"`
	Layers []string `json:"layers"`
}

// PresetsResponse is the body of GET /v1/presets: everything a client
// can name in a schedule request.
type PresetsResponse struct {
	Archs       []PresetArchJSON    `json:"archs"`
	Networks    []PresetNetworkJSON `json:"networks"`
	Budgets     []string            `json:"budgets"`
	Priorities  []string            `json:"priorities"`
	MemPolicies []string            `json:"mem_policies"`
	Metrics     []string            `json:"metrics"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429
	// responses: the server's estimate of when a slot will free up.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// State reports the server's load at failure time on 429 and 504
	// responses, so clients can degrade gracefully (back off, fall
	// back to a local search, or alert).
	State *ServerStateJSON `json:"state,omitempty"`
}

// ServerStateJSON is a point-in-time view of the serving pipeline,
// attached to shed and timed-out responses.
type ServerStateJSON struct {
	// Queued is the number of requests waiting for a worker slot,
	// summed across tenants.
	Queued int64 `json:"queued"`
	// QueueLimit is the configured per-tenant admission bound
	// (negative = unlimited).
	QueueLimit int `json:"queue_limit"`
	// Searching is the number of searches currently holding a slot.
	Searching int64 `json:"searching"`
	// Workers is the worker-pool size.
	Workers int `json:"workers"`
	// Tenant is the shed request's own queue view, present on 429
	// responses: how deep its tenant's queue was and the position the
	// request would have occupied.
	Tenant *TenantStateJSON `json:"tenant,omitempty"`
	// Cache is the shared result cache's hit/miss/eviction snapshot.
	Cache search.CacheStats `json:"cache"`
}

// TenantStateJSON is the per-tenant queue view attached to a shed
// request's 429 body.
type TenantStateJSON struct {
	// Name is the tenant the request was billed to.
	Name string `json:"name"`
	// Queued is how many of the tenant's requests were waiting when
	// this one was shed.
	Queued int `json:"queued"`
	// QueueLimit is the per-tenant queue bound that was hit.
	QueueLimit int `json:"queue_limit"`
	// Position is the 1-based queue position the shed request would
	// have occupied.
	Position int `json:"position"`
}

// tenantState converts an admission shed error into the wire view
// attached to 429 bodies.
func tenantState(qf *admission.QueueFullError) *TenantStateJSON {
	return &TenantStateJSON{
		Name:       qf.Tenant,
		Queued:     qf.Queued,
		QueueLimit: qf.Limit,
		Position:   qf.Position,
	}
}

// errSearchPanicked marks (and prefixes) a panic recovered from a search
// function, so it maps to a 500 after the worker slot was restored.
var errSearchPanicked = errors.New("internal error: search panicked")

// badRequestError marks client mistakes (unknown names, invalid
// shapes) so the handler maps them to a 4xx instead of a 5xx.
type badRequestError struct{ msg string }

// Error returns the client-facing message.
func (e badRequestError) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return badRequestError{fmt.Sprintf(format, args...)}
}

// resolveArch picks the hardware configuration named or embedded in a
// request; empty means arch1.
func resolveArch(preset string, custom *ArchJSON) (arch.Config, error) {
	if custom != nil {
		cfg := custom.Config()
		if err := cfg.Validate(); err != nil {
			return arch.Config{}, badf("custom_arch: %v", err)
		}
		return cfg, nil
	}
	if preset == "" {
		preset = "arch1"
	}
	cfg, err := arch.Preset(preset)
	if err != nil {
		return arch.Config{}, badf("%v", err)
	}
	return cfg, nil
}

// resolveOptions translates the wire option block into search.Options
// (without the Cache and Workers fields, which the server owns). The
// wire's rule that an empty name means a default lives here, as do the
// defaults; which names exist is the parse functions' business.
func resolveOptions(o SearchOptionsJSON, cfg arch.Config) (search.Options, error) {
	opts := search.Options{Arch: cfg, FuseDepth: o.FuseDepth}
	var err error
	if opts.Budget, err = namedOption("budget", cmp.Or(o.Budget, "quick"), search.BudgetByName, search.BudgetNames); err != nil {
		return opts, err
	}
	if opts.Priority, err = namedOption("priority", cmp.Or(o.Priority, "default"), sched.ParsePriority, sched.PriorityNames); err != nil {
		return opts, err
	}
	if opts.MemPolicy, err = namedOption("mem_policy", cmp.Or(o.MemPolicy, "flexer"), spm.ParsePolicy, spm.PolicyNames); err != nil {
		return opts, err
	}
	if opts.Metric, err = namedOption("metric", cmp.Or(o.Metric, "default"), search.ParseMetric, search.MetricNames); err != nil {
		return opts, err
	}
	if o.FuseDepth < 0 {
		return opts, badf("fuse_depth must be >= 0, got %d", o.FuseDepth)
	}
	return opts, nil
}

// namedOption parses one enumerated option of the wire, turning a name
// parse rejects into a 400 that lists what names() offers.
func namedOption[T any](field, name string, parse func(string) (T, error), names func() []string) (T, error) {
	v, err := parse(name)
	if err != nil {
		all := names()
		last := len(all) - 1
		return v, badf("unknown %s %q (want %s or %s)", field, name, strings.Join(all[:last], ", "), all[last])
	}
	return v, nil
}

// resolveFaultPlan validates a request's fault plan against the
// resolved hardware, mapping plan mistakes (core out of range, plan
// kills every core, bad windows) to 400s.
func resolveFaultPlan(plan *fault.Plan, cfg arch.Config) (*fault.Plan, error) {
	if plan.Empty() {
		return nil, nil
	}
	if err := plan.Validate(cfg.Cores); err != nil {
		return nil, badf("fault_plan: %v", err)
	}
	return plan, nil
}

// resolveLayer picks the layer named or embedded in a layer request.
func resolveLayer(req LayerRequest) (layer.Conv, error) {
	switch {
	case req.Shape != nil:
		if req.Network != "" || req.Layer != "" {
			return layer.Conv{}, badf("give either shape or network+layer, not both")
		}
		l := req.Shape.Conv()
		if err := l.Validate(); err != nil {
			return layer.Conv{}, badf("shape: %v", err)
		}
		return l, nil
	case req.Network != "" && req.Layer != "":
		n, err := nets.ByName(req.Network)
		if err != nil {
			return layer.Conv{}, badf("%v", err)
		}
		l, err := n.Layer(req.Layer)
		if err != nil {
			return layer.Conv{}, badf("%v", err)
		}
		return l, nil
	default:
		return layer.Conv{}, badf("request needs either shape or network+layer")
	}
}

// resolveNetwork picks and optionally down-scales a built-in network.
func resolveNetwork(name string, scale int) (nets.Network, error) {
	n, err := nets.ByName(name)
	if err != nil {
		return nets.Network{}, badf("%v", err)
	}
	if scale < 0 {
		return nets.Network{}, badf("scale must be >= 0, got %d", scale)
	}
	if scale > 1 {
		n = n.Scale(scale)
	}
	return n, nil
}

// buildLayerResponse converts a search result into the wire form.
func buildLayerResponse(lr *search.LayerResult, archName string, full bool, elapsedMS float64) LayerResponse {
	resp := LayerResponse{
		Layer:            lr.Layer.Name,
		Arch:             archName,
		Candidates:       len(lr.Candidates),
		OoO:              trace.Build(lr.BestOoO, full),
		Static:           trace.Build(lr.BestStatic, full),
		StaticOrder:      lr.BestStaticOrder.Name,
		Speedup:          lr.Speedup(),
		TrafficReduction: lr.TrafficReduction(),
		ElapsedMS:        elapsedMS,
	}
	if lr.Degraded != nil {
		deg := trace.Build(lr.Degraded, full)
		resp.Degraded = &deg
		resp.DegradedRatio = lr.DegradedRatio()
	}
	return resp
}

// buildNetworkResponse converts a network search result into the wire
// form.
func buildNetworkResponse(nr *search.NetworkResult, elapsedMS float64) NetworkResponse {
	resp := NetworkResponse{
		Network:             nr.Network,
		Arch:                nr.Arch,
		Speedup:             nr.Speedup(),
		TrafficReduction:    nr.TrafficReduction(),
		ElapsedMS:           elapsedMS,
		DistinctLayerShapes: nr.LayerSearches,
	}
	for _, lr := range nr.Layers {
		row := NetworkLayerJSON{
			Layer:            lr.Layer.Name,
			Tiling:           lr.BestOoO.Factors.String(),
			OoOCycles:        lr.BestOoO.LatencyCycles,
			StaticCycles:     lr.BestStatic.LatencyCycles,
			OoOTrafficBytes:  lr.BestOoO.TrafficBytes(),
			StaticTraffic:    lr.BestStatic.TrafficBytes(),
			StaticOrder:      lr.BestStaticOrder.Name,
			Speedup:          lr.Speedup(),
			TrafficReduction: lr.TrafficReduction(),
		}
		if lr.Degraded != nil {
			row.DegradedCycles = lr.Degraded.LatencyCycles
			row.DegradedRatio = lr.DegradedRatio()
		}
		resp.Layers = append(resp.Layers, row)
	}
	resp.OoOCycles, resp.StaticCycles, resp.OoOTrafficBytes, resp.StaticTrafficBytes = nr.Totals()
	resp.DegradedCycles = nr.DegradedCycles()
	resp.DegradedRatio = nr.DegradedRatio()
	resp.FuseDepth = nr.FuseDepth
	for _, seg := range nr.Segments {
		row := FusedSegmentJSON{
			FirstLayer:      nr.Layers[seg.First].Layer.Name,
			LastLayer:       nr.Layers[seg.Last].Layer.Name,
			Cycles:          seg.Result.LatencyCycles,
			TrafficBytes:    seg.Result.TrafficBytes(),
			LayerwiseCycles: seg.LayerwiseCycles,
			LayerwiseBytes:  seg.LayerwiseTraffic,
			GatherBytes:     seg.Result.GatherBytes,
		}
		if seg.Degraded != nil {
			row.DegradedCycles = seg.Degraded.LatencyCycles
		}
		resp.Segments = append(resp.Segments, row)
	}
	for _, b := range nr.Boundaries {
		resp.Boundaries = append(resp.Boundaries, FusionBoundaryJSON{
			Producer: b.Producer, Consumer: b.Consumer, Fused: b.Fused, Reason: b.Reason,
		})
	}
	return resp
}

// buildPresets enumerates everything a request can name.
func buildPresets() PresetsResponse {
	resp := PresetsResponse{
		Budgets:     search.BudgetNames(),
		Priorities:  sched.PriorityNames(),
		MemPolicies: spm.PolicyNames(),
		Metrics:     search.MetricNames(),
	}
	for _, a := range arch.Presets() {
		resp.Archs = append(resp.Archs, PresetArchJSON{
			Name:                   a.Name,
			Cores:                  a.Cores,
			SPMKiB:                 a.SPMBytes / 1024,
			BandwidthBytesPerCycle: a.BandwidthBytesPerCycle,
		})
	}
	for _, n := range nets.All() {
		pn := PresetNetworkJSON{Name: n.Name}
		for _, l := range n.Layers {
			pn.Layers = append(pn.Layers, l.Name)
		}
		resp.Networks = append(resp.Networks, pn)
	}
	return resp
}
