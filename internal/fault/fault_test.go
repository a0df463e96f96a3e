package fault

import (
	"math"
	"testing"
)

func TestQueries(t *testing.T) {
	p := &Plan{
		CoreDown: []CoreDown{{Core: 1, Cycle: 500}, {Core: 1, Cycle: 300}},
		Flaky:    []Flaky{{Core: 0, From: 100, To: 200, Slowdown: 2}},
		DMA:      []Derate{{From: 50, To: 60, Factor: 3}, {From: 55, Factor: 2}},
	}
	if d, dead := p.DeathCycle(1); !dead || d != 300 {
		t.Errorf("DeathCycle(1) = %d,%v, want 300,true", d, dead)
	}
	if _, dead := p.DeathCycle(0); dead {
		t.Error("DeathCycle(0): core 0 should be alive")
	}
	for _, tc := range []struct {
		core int
		at   int64
		want float64
	}{{0, 99, 1}, {0, 100, 2}, {0, 199, 2}, {0, 200, 1}, {1, 150, 1}} {
		if got := p.Slowdown(tc.core, tc.at); got != tc.want {
			t.Errorf("Slowdown(%d, %d) = %g, want %g", tc.core, tc.at, got, tc.want)
		}
	}
	// Overlapping derates: the larger factor wins; the open-ended one
	// persists.
	for _, tc := range []struct {
		at   int64
		want float64
	}{{49, 1}, {50, 3}, {59, 3}, {60, 2}, {1 << 40, 2}} {
		if got := p.DMAFactor(tc.at); got != tc.want {
			t.Errorf("DMAFactor(%d) = %g, want %g", tc.at, got, tc.want)
		}
	}
	if got := p.FirstDisruption(); got != 50 {
		t.Errorf("FirstDisruption = %d, want 50", got)
	}
	if got := (&Plan{}).FirstDisruption(); got != math.MaxInt64 {
		t.Errorf("empty FirstDisruption = %d, want MaxInt64", got)
	}
	if got := p.survivors(4); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Errorf("survivors(4) = %v, want [0 2 3]", got)
	}
}

func TestValidate(t *testing.T) {
	good := &Plan{
		CoreDown: []CoreDown{{Core: 3, Cycle: 10}},
		Flaky:    []Flaky{{Core: 0, From: 0, To: 5, Slowdown: 1.5}},
		DMA:      []Derate{{From: 0, Factor: 2}},
	}
	if err := good.Validate(4); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := (*Plan)(nil).Validate(4); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
	for name, p := range map[string]*Plan{
		"core out of range": {CoreDown: []CoreDown{{Core: 4, Cycle: 1}}},
		"negative cycle":    {CoreDown: []CoreDown{{Core: 0, Cycle: -1}}},
		"flaky bad core":    {Flaky: []Flaky{{Core: -1, From: 0, To: 5, Slowdown: 2}}},
		"flaky empty win":   {Flaky: []Flaky{{Core: 0, From: 5, To: 5, Slowdown: 2}}},
		"flaky speedup":     {Flaky: []Flaky{{Core: 0, From: 0, To: 5, Slowdown: 0.5}}},
		"derate empty win":  {DMA: []Derate{{From: 5, To: 4, Factor: 2}}},
		"derate speedup":    {DMA: []Derate{{From: 0, Factor: 0.9}}},
		"all cores dead":    {CoreDown: []CoreDown{{Core: 0, Cycle: 1}, {Core: 1, Cycle: 99}, {Core: 2, Cycle: 5}, {Core: 3, Cycle: 0}}},
	} {
		if err := p.Validate(4); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
}

func TestScale(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		f    float64
		want int64
	}{{100, 1, 100}, {100, 2, 200}, {3, 1.5, 5}, {0, 10, 0}, {100, 0.5, 100}} {
		if got := Scale(tc.n, tc.f); got != tc.want {
			t.Errorf("Scale(%d, %g) = %d, want %d", tc.n, tc.f, got, tc.want)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"core1@5000",
		"core0@10,core2@20",
		"flaky0@100-900x1.5",
		"dma@2000x2",
		"dma@2000-4000x2",
		"core1@5000,flaky0@100-900x1.5,dma@2000-4000x2.5",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if got := p.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
	}
	// Whitespace and empty items are tolerated.
	if p, err := Parse(" core1@5 , ,dma@1x2 "); err != nil || len(p.CoreDown) != 1 || len(p.DMA) != 1 {
		t.Errorf("Parse with whitespace: %+v, %v", p, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"core1",            // missing @
		"coreX@5",          // bad core index
		"core1@x",          // bad cycle
		"flaky0@100x2",     // flaky needs a closed window
		"flaky0@100-200",   // missing factor
		"flakyZ@1-2x2",     // bad core index
		"dma@ax2",          // bad window start
		"dma@1-bx2",        // bad window end
		"dma@1-2xq",        // bad factor
		"spindle0@5",       // unknown event
		"core1@5;core2@10", // wrong separator
	} {
		if p, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", spec, p)
		}
	}
}

func TestRandomDeterministicAndSurvivable(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, cores := range []int{1, 2, 4} {
			a := Random(seed, cores, 10_000)
			b := Random(seed, cores, 10_000)
			if a.String() != b.String() {
				t.Fatalf("seed %d: Random not deterministic: %q vs %q", seed, a.String(), b.String())
			}
			if a.Empty() {
				t.Fatalf("seed %d cores %d: empty plan", seed, cores)
			}
			if err := a.Validate(cores); err != nil {
				t.Fatalf("seed %d cores %d: invalid plan %q: %v", seed, cores, a, err)
			}
			if len(a.survivors(cores)) == 0 {
				t.Fatalf("seed %d cores %d: no survivors", seed, cores)
			}
		}
	}
	if Random(1, 4, 10_000).String() == Random(2, 4, 10_000).String() {
		t.Error("different seeds produced identical plans")
	}
}
