// Package fault defines deterministic fault plans for a multi-NPU
// machine: cores that die at a known cycle, cores that run slow for an
// interval, and windows during which the shared DMA channel delivers a
// fraction of its bandwidth.
//
// A Plan is pure data — it says nothing about *how* the machine
// degrades, only *when* and *by how much* — so the same plan can be
// injected into the timeline simulator (internal/sim), replayed by the
// schedule verifier (internal/verify), rendered in a Gantt chart
// (internal/trace), and carried in a flexerd request body. Plans are
// deterministic by construction: Random derives one from a seed, Parse
// reads the compact spec grammar used by the -fault CLI flag, and
// String renders the inverse of Parse (which also makes it usable as a
// cache-key component).
//
// The model is fail-stop with drain: an op is legal on a core if it
// *starts* before the core's death cycle; work already in flight when
// the core dies is allowed to complete. Flaky windows and DMA derates
// likewise apply to work that *starts* inside the window — cycle
// accounting stays a pure function of the start cycle, which keeps the
// simulator incremental and the verifier a replay.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// CoreDown marks a core as permanently dead from Cycle onward. Ops that
// start at or after Cycle may not be issued on Core; an op already
// running at Cycle drains to completion.
type CoreDown struct {
	Core  int   `json:"core"`
	Cycle int64 `json:"cycle"`
}

// Flaky marks a core as slowed down by Slowdown (>= 1) for ops starting
// in [From, To).
type Flaky struct {
	Core     int     `json:"core"`
	From     int64   `json:"from"`
	To       int64   `json:"to"`
	Slowdown float64 `json:"slowdown"`
}

// Derate stretches DMA transfers that start in [From, To) by Factor
// (>= 1). To == 0 means the window never closes.
type Derate struct {
	From   int64   `json:"from"`
	To     int64   `json:"to,omitempty"`
	Factor float64 `json:"factor"`
}

// Plan is a set of fault events against one machine. The zero value is
// the empty plan (a healthy machine).
type Plan struct {
	CoreDown []CoreDown `json:"core_down,omitempty"`
	Flaky    []Flaky    `json:"flaky,omitempty"`
	DMA      []Derate   `json:"dma_derate,omitempty"`
}

// Empty reports whether p contains no fault events. A nil plan is
// empty.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.CoreDown) == 0 && len(p.Flaky) == 0 && len(p.DMA) == 0)
}

// Validate checks the plan against a machine with the given core count.
// It rejects out-of-range cores, malformed windows, slowdown or derate
// factors below 1, and plans that kill every core (a schedule needs at
// least one survivor).
func (p *Plan) Validate(cores int) error {
	if p == nil {
		return nil
	}
	for _, d := range p.CoreDown {
		if d.Core < 0 || d.Core >= cores {
			return fmt.Errorf("fault: core_down core %d out of range [0,%d)", d.Core, cores)
		}
		if d.Cycle < 0 {
			return fmt.Errorf("fault: core_down cycle %d is negative", d.Cycle)
		}
	}
	for _, f := range p.Flaky {
		if f.Core < 0 || f.Core >= cores {
			return fmt.Errorf("fault: flaky core %d out of range [0,%d)", f.Core, cores)
		}
		if f.From < 0 || f.To <= f.From {
			return fmt.Errorf("fault: flaky window [%d,%d) is empty or negative", f.From, f.To)
		}
		if f.Slowdown < 1 {
			return fmt.Errorf("fault: flaky slowdown %g < 1", f.Slowdown)
		}
	}
	for _, d := range p.DMA {
		if d.From < 0 || (d.To != 0 && d.To <= d.From) {
			return fmt.Errorf("fault: dma_derate window [%d,%d) is empty or negative", d.From, d.To)
		}
		if d.Factor < 1 {
			return fmt.Errorf("fault: dma_derate factor %g < 1", d.Factor)
		}
	}
	if len(p.survivors(cores)) == 0 {
		return fmt.Errorf("fault: plan kills all %d cores; at least one must survive", cores)
	}
	return nil
}

// DeathCycle returns the earliest cycle at which core dies, and whether
// it dies at all.
func (p *Plan) DeathCycle(core int) (int64, bool) {
	if p == nil {
		return 0, false
	}
	cycle, dead := int64(0), false
	for _, d := range p.CoreDown {
		if d.Core != core {
			continue
		}
		if !dead || d.Cycle < cycle {
			cycle, dead = d.Cycle, true
		}
	}
	return cycle, dead
}

// Slowdown returns the compute-latency multiplier for an op starting on
// core at cycle `at` — the largest matching flaky window, or 1 when
// none applies.
func (p *Plan) Slowdown(core int, at int64) float64 {
	s := 1.0
	if p == nil {
		return s
	}
	for _, f := range p.Flaky {
		if f.Core == core && at >= f.From && at < f.To && f.Slowdown > s {
			s = f.Slowdown
		}
	}
	return s
}

// DMAFactor returns the transfer-latency multiplier for a DMA transfer
// starting at cycle `at` — the largest matching derate window, or 1.
func (p *Plan) DMAFactor(at int64) float64 {
	s := 1.0
	if p == nil {
		return s
	}
	for _, d := range p.DMA {
		if at >= d.From && (d.To == 0 || at < d.To) && d.Factor > s {
			s = d.Factor
		}
	}
	return s
}

// FirstDisruption returns the earliest cycle at which any event of the
// plan takes effect, or math.MaxInt64 for an empty plan. Work that
// starts before this cycle runs at nominal timing on a healthy machine,
// which makes it the natural repair point for sched.Repair.
func (p *Plan) FirstDisruption() int64 {
	first := int64(math.MaxInt64)
	if p == nil {
		return first
	}
	for _, d := range p.CoreDown {
		first = min(first, d.Cycle)
	}
	for _, f := range p.Flaky {
		first = min(first, f.From)
	}
	for _, d := range p.DMA {
		first = min(first, d.From)
	}
	return first
}

// survivors returns the cores with no death event, in index order.
func (p *Plan) survivors(cores int) []int {
	out := make([]int, 0, cores)
	for i := 0; i < cores; i++ {
		if _, dead := p.DeathCycle(i); !dead {
			out = append(out, i)
		}
	}
	return out
}

// Scale stretches a latency of n cycles by factor f, rounding up. It is
// the single definition of "slower" shared by the simulator and the
// verifier, so their cycle accounting cannot drift apart.
func Scale(n int64, f float64) int64 {
	if f <= 1 || n <= 0 {
		return n
	}
	return int64(math.Ceil(float64(n) * f))
}

// String renders the plan in the spec grammar accepted by Parse:
// comma-separated events, e.g. "core1@5000,flaky0@100-900x1.5,dma@2000-4000x2".
// An empty or nil plan renders as "".
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var items []string
	for _, d := range p.CoreDown {
		items = append(items, fmt.Sprintf("core%d@%d", d.Core, d.Cycle))
	}
	for _, f := range p.Flaky {
		items = append(items, fmt.Sprintf("flaky%d@%d-%dx%s", f.Core, f.From, f.To, formatFactor(f.Slowdown)))
	}
	for _, d := range p.DMA {
		if d.To == 0 {
			items = append(items, fmt.Sprintf("dma@%dx%s", d.From, formatFactor(d.Factor)))
		} else {
			items = append(items, fmt.Sprintf("dma@%d-%dx%s", d.From, d.To, formatFactor(d.Factor)))
		}
	}
	return strings.Join(items, ",")
}

func formatFactor(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Parse reads a fault plan in the spec grammar:
//
//	core<i>@<cycle>              core i dies at cycle
//	flaky<i>@<from>-<to>x<s>     core i runs s× slower for ops starting in [from,to)
//	dma@<from>x<f>               DMA transfers starting at/after from take f× longer
//	dma@<from>-<to>x<f>          same, only for transfers starting in [from,to)
//
// Events are comma-separated; "" parses to an empty plan. Parse checks
// syntax only — call Validate with the core count to check ranges.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		head, tail, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("fault: %q: want <event>@<cycles>", item)
		}
		switch {
		case strings.HasPrefix(head, "flaky"):
			core, err := strconv.Atoi(head[len("flaky"):])
			if err != nil {
				return nil, fmt.Errorf("fault: %q: bad core index", item)
			}
			from, to, factor, err := parseWindow(tail, true)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %v", item, err)
			}
			p.Flaky = append(p.Flaky, Flaky{Core: core, From: from, To: to, Slowdown: factor})
		case head == "dma":
			from, to, factor, err := parseWindow(tail, false)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %v", item, err)
			}
			p.DMA = append(p.DMA, Derate{From: from, To: to, Factor: factor})
		case strings.HasPrefix(head, "core"):
			core, err := strconv.Atoi(head[len("core"):])
			if err != nil {
				return nil, fmt.Errorf("fault: %q: bad core index", item)
			}
			cycle, err := strconv.ParseInt(tail, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: bad death cycle", item)
			}
			p.CoreDown = append(p.CoreDown, CoreDown{Core: core, Cycle: cycle})
		default:
			return nil, fmt.Errorf("fault: %q: unknown event (want core<i>, flaky<i> or dma)", item)
		}
	}
	return p, nil
}

// parseWindow parses "<from>[-<to>]x<factor>"; needTo requires the
// closed form.
func parseWindow(s string, needTo bool) (from, to int64, factor float64, err error) {
	span, factorStr, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want <window>x<factor>")
	}
	fromStr, toStr, closed := strings.Cut(span, "-")
	if needTo && !closed {
		return 0, 0, 0, fmt.Errorf("want <from>-<to>x<factor>")
	}
	if from, err = strconv.ParseInt(fromStr, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad window start %q", fromStr)
	}
	if closed {
		if to, err = strconv.ParseInt(toStr, 10, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("bad window end %q", toStr)
		}
	}
	if factor, err = strconv.ParseFloat(factorStr, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad factor %q", factorStr)
	}
	return from, to, factor, nil
}

// Random derives a plan from seed for a machine with the given core
// count, scaled to a schedule of roughly `horizon` cycles: at most one
// core death (never on a single-core machine, so at least one core
// always survives), possibly one flaky window, possibly one DMA derate,
// all landing mid-horizon. The same (seed, cores, horizon) always
// yields the same plan.
func Random(seed int64, cores int, horizon int64) *Plan {
	if horizon < 4 {
		horizon = 4
	}
	rng := rand.New(rand.NewSource(seed))
	mid := func() int64 { return horizon/4 + rng.Int63n(horizon/2+1) }
	p := &Plan{}
	if cores > 1 {
		p.CoreDown = append(p.CoreDown, CoreDown{Core: rng.Intn(cores), Cycle: mid()})
	}
	if rng.Intn(2) == 0 {
		from := mid()
		p.Flaky = append(p.Flaky, Flaky{
			Core:     rng.Intn(cores),
			From:     from,
			To:       from + horizon/4 + 1,
			Slowdown: 1 + rng.Float64()*3,
		})
	}
	if rng.Intn(2) == 0 || p.Empty() {
		from := mid()
		p.DMA = append(p.DMA, Derate{From: from, To: from + horizon/2 + 1, Factor: 1 + rng.Float64()*7})
	}
	return p
}
